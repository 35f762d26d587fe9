package sbdms

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/netbind"
	"repro/internal/storage"
	"repro/internal/wal"
)

// ctx is the context of every test call that has no deadline or
// cancellation of its own to exercise.
var ctx = context.Background()

// kvLen is db.KVLen with the error fatal.
func kvLen(t testing.TB, db *DB) uint64 {
	t.Helper()
	n, err := db.KVLen(ctx)
	if err != nil {
		t.Fatalf("KVLen: %v", err)
	}
	return n
}

func openDB(t *testing.T, g Granularity) *DB {
	t.Helper()
	db, err := Open(Options{
		Granularity:  g,
		BufferFrames: 64,
		Coordinator: core.CoordinatorConfig{
			ProbePeriod:  0, // probe explicitly in tests
			ProbeTimeout: 100 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close(context.Background()) })
	return db
}

func TestSQLAcrossGranularities(t *testing.T) {
	ctx := context.Background()
	for _, g := range Granularities {
		t.Run(string(g), func(t *testing.T) {
			db := openDB(t, g)
			if _, err := db.Exec(ctx, "CREATE TABLE t (a INT, b TEXT)"); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec(ctx, "INSERT INTO t VALUES (1, 'one'), (2, 'two')"); err != nil {
				t.Fatal(err)
			}
			res, err := db.Exec(ctx, "SELECT b FROM t WHERE a = 2")
			if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str != "two" {
				t.Fatalf("rows = %v, %v", res, err)
			}
		})
	}
}

func TestServiceRegistrations(t *testing.T) {
	db := openDB(t, Layered)
	reg := db.Kernel().Registry()
	for _, iface := range []string{IfaceKV, IfaceRecord, IfaceQuery} {
		if len(reg.Discover(iface)) == 0 {
			t.Errorf("no provider for %s", iface)
		}
	}
	// Contracts stored in the repository for adaptation.
	for _, iface := range []string{IfaceKV, IfaceRecord, IfaceQuery} {
		if _, err := db.Kernel().Repository().GetContract(iface); err != nil {
			t.Errorf("no schema for %s", iface)
		}
	}
	// Fine adds the disk service.
	fine := openDB(t, Fine)
	if len(fine.Kernel().Registry().Discover(IfaceDisk)) == 0 {
		t.Error("fine profile must register the disk service")
	}
	if len(db.Kernel().Registry().Discover(IfaceDisk)) != 0 {
		t.Error("layered profile must not register the disk service")
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	openDev := func(name string) storage.Device {
		d, err := storage.OpenFileDevice(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	logDir, err := wal.NewFileSegmentDir(dir + "/wal")
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{Device: openDev("data.db"), LogDir: logDir, Granularity: Coarse})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, "CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, "INSERT INTO t VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(ctx, "key", []byte("value")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(ctx); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Device: openDev("data.db"), LogDir: logDir, Granularity: Coarse})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close(ctx)
	res, err := db2.Exec(ctx, "SELECT a FROM t")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int != 7 {
		t.Fatalf("rows = %v, %v", res, err)
	}
	// KV data and its index survive the reopen.
	if kvLen(t, db2) != 1 {
		t.Fatalf("KVLen = %d", kvLen(t, db2))
	}
	v, err := db2.Get(ctx, "key")
	if err != nil || string(v) != "value" {
		t.Fatalf("Get after reopen = %q, %v", v, err)
	}
}

func TestScenarioExtension(t *testing.T) {
	ctx := context.Background()
	db := openDB(t, Coarse)
	res, err := ScenarioExtension(ctx, db, 300)
	if err != nil {
		t.Fatal(err)
	}
	assertKeptData(t, res)
	if res.OpsBefore != 300 || res.OpsDuring != 300 || res.OpsAfter != 300 {
		t.Fatalf("ops = %+v", res)
	}
	if !strings.Contains(res.ServedBy, "page-coordinator") {
		t.Fatalf("ServedBy = %q", res.ServedBy)
	}
	if res.Events[core.EventComponentDeployed] == 0 {
		t.Fatalf("events = %v", res.Events)
	}
	if res.String() == "" {
		t.Fatal("String")
	}
}

// scenarioProfiles are the deployments the selection and adaptation
// scenarios must keep the clients' data on: in process, and Layered
// with every service behind its own loopback wire.
var scenarioProfiles = []struct {
	name string
	g    Granularity
	wire bool
}{{"coarse", Coarse, false}, {"layered", Layered, false}, {"layered-netbind", Layered, true}}

// openScenarioDB opens g as openDB does; with wire set, every service
// is served over netbind, and the binding closes after the DB.
func openScenarioDB(t *testing.T, g Granularity, wire bool) *DB {
	t.Helper()
	if !wire {
		return openDB(t, g)
	}
	b := &netbind.Binding{}
	t.Cleanup(func() { _ = b.Close() })
	db, err := Open(Options{Granularity: g, BufferFrames: 64, Binding: b,
		Coordinator: core.CoordinatorConfig{ProbeTimeout: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close(context.Background()) })
	return db
}

// assertKeptData: every client operation was served, every read saw
// the last acked value, and every acked key read back.
func assertKeptData(t *testing.T, res ScenarioResult) {
	t.Helper()
	if res.LostAcked != 0 || res.StaleReads != 0 || res.Failures != 0 {
		t.Fatalf("lostAcked=%d staleReads=%d failures=%d (%s)", res.LostAcked, res.StaleReads, res.Failures, res)
	}
}

func TestScenarioSelection(t *testing.T) {
	ctx := context.Background()
	for _, p := range scenarioProfiles {
		t.Run(p.name, func(t *testing.T) {
			db := openScenarioDB(t, p.g, p.wire)
			res, err := ScenarioSelection(ctx, db, 200)
			if err != nil {
				t.Fatal(err)
			}
			assertKeptData(t, res)
			if res.ServedBy != "kv-standby" {
				t.Fatalf("ServedBy = %q, want kv-standby during release", res.ServedBy)
			}
			if res.Events[core.EventWorkflowSwitched] == 0 {
				t.Fatalf("events = %v", res.Events)
			}
		})
	}
	// Monolithic cannot run the scenario.
	db := openDB(t, Monolithic)
	if _, err := ScenarioSelection(ctx, db, 10); err == nil {
		t.Fatal("monolithic selection scenario must fail")
	}
}

func TestScenarioAdaptation(t *testing.T) {
	ctx := context.Background()
	for _, p := range scenarioProfiles {
		t.Run(p.name, func(t *testing.T) {
			db := openScenarioDB(t, p.g, p.wire)
			res, err := ScenarioAdaptation(ctx, db, 200)
			if err != nil {
				t.Fatal(err)
			}
			// The system continues to operate on its data (Figure 7),
			// served through a generated adaptor.
			assertKeptData(t, res)
			if res.OpsDuring == 0 || res.OpsAfter == 0 {
				t.Fatalf("ops = %+v", res)
			}
			if !strings.HasPrefix(res.ServedBy, "adaptor:") {
				t.Fatalf("ServedBy = %q, want an adaptor", res.ServedBy)
			}
			if res.Events[core.EventAdaptorCreated] == 0 {
				t.Fatalf("events = %v", res.Events)
			}
		})
	}
}

func TestOpenBadGranularity(t *testing.T) {
	if _, err := Open(Options{Granularity: "weird"}); err == nil {
		t.Fatal("unknown granularity must fail")
	}
}

func TestKeyNotFoundError(t *testing.T) {
	db := openDB(t, Monolithic)
	_, err := db.Get(ctx, "zzz")
	if !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// TestWireBindingProfile: every profile over a real loopback wire
// returns what the in-process DB returns, and a warm Get makes exactly
// one binding call per service boundary it crosses.
func TestWireBindingProfile(t *testing.T) {
	hops := map[Granularity]int64{Monolithic: 0, Coarse: 1, Layered: 2, Fine: 2}
	for _, g := range Granularities {
		t.Run(string(g), func(t *testing.T) {
			wire := &netbind.Binding{}
			defer wire.Close()
			// No periodic probes: each would be a binding call.
			opts := Options{Granularity: g, Coordinator: core.CoordinatorConfig{ProbeTimeout: time.Second}}
			local, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer local.Close(ctx)
			opts.Binding = wire
			remote, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close(ctx) // before wire.Close: defers run last-in first-out

			// transcript runs the same operations on a DB and renders
			// every result.
			transcript := func(db *DB) string {
				var out []string
				for i := 0; i < 5; i++ {
					out = append(out, fmt.Sprint(db.Put(ctx, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))))
				}
				v, err := db.Get(ctx, "k3")
				out = append(out, fmt.Sprintf("%s %v", v, err))
				_, err = db.Get(ctx, "missing")
				out = append(out, fmt.Sprint(IsKeyNotFound(err)))
				keys, err := db.ScanKeys(ctx, "k1", 3)
				out = append(out, fmt.Sprint(keys, err))
				out = append(out, fmt.Sprint(db.DeleteKey(ctx, "k2")))
				_, err = db.Get(ctx, "k2")
				out = append(out, fmt.Sprint(IsKeyNotFound(err)))
				keys, err = db.ScanKeys(ctx, "", 10)
				out = append(out, fmt.Sprint(keys, err))
				return strings.Join(out, "\n")
			}
			if want, got := transcript(local), transcript(remote); got != want {
				t.Fatalf("over the wire:\n%s\nin process:\n%s", got, want)
			}

			// Warm Get: Coarse crosses the kv boundary; Layered's kv
			// handler makes the nested record hop; Fine's disk boundary
			// stays quiet on a pool hit.
			before := wire.Calls()
			if v, err := remote.Get(ctx, "k1"); err != nil || string(v) != "v1" {
				t.Fatalf("Get = %q, %v", v, err)
			}
			if got := wire.Calls() - before; got != hops[g] {
				t.Fatalf("warm Get made %d binding calls, want %d", got, hops[g])
			}
		})
	}
}

// TestKVLenSurfacesServiceFailure: a broken service path must read as
// an error, not as an empty store.
func TestKVLenSurfacesServiceFailure(t *testing.T) {
	down := errors.New("service down")
	c := NewKVClient(core.InvokerFunc(func(context.Context, string, any) (any, error) { return nil, down }))
	if n, err := c.Len(ctx); !errors.Is(err, down) {
		t.Fatalf("Len over a failing invoker = %d, %v; want the invoke error", n, err)
	}
}

// TestReadsLeaveNoWALTrace: at every granularity, statements and KV
// operations that change nothing append no log record and force no
// sync — the log moves only for writes, once per write.
func TestReadsLeaveNoWALTrace(t *testing.T) {
	for _, g := range Granularities {
		t.Run(string(g), func(t *testing.T) {
			db, err := Open(Options{Device: storage.NewMemDevice(), Granularity: g})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close(ctx)
			for _, q := range []string{
				"CREATE TABLE orders (id INT, cust INT, amount INT)",
				"CREATE INDEX orders_id ON orders (id)",
				"INSERT INTO orders VALUES (1, 10, 100), (2, 10, 250), (3, 11, 75)",
			} {
				if _, err := db.Exec(ctx, q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			if err := db.Put(ctx, "k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := db.Put(ctx, "gone", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := db.DeleteKey(ctx, "gone"); err != nil {
				t.Fatal(err)
			}
			next, syncs := db.Log().NextLSN(), db.Log().Syncs()

			for i := 0; i < 1000; i++ {
				res, err := db.Exec(ctx, "SELECT COUNT(*), SUM(amount) FROM orders WHERE cust = 10")
				if err != nil || res.Rows[0][0].Int != 2 || res.Rows[0][1].Int != 350 {
					t.Fatalf("aggregate = %v, %v", res, err)
				}
			}
			for _, q := range []string{"BEGIN", "SELECT amount FROM orders WHERE id = 2", "COMMIT"} {
				if _, err := db.Exec(ctx, q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			for i := 0; i < 100; i++ {
				if _, err := db.Get(ctx, "k"); err != nil {
					t.Fatal(err)
				}
				if _, err := db.GetSnapshot(ctx, "k"); err != nil {
					t.Fatal(err)
				}
				if _, err := db.ScanKeys(ctx, "", 10); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Get(ctx, "absent"); !IsKeyNotFound(err) {
					t.Fatal(err)
				}
				// A Delete that finds nothing — no index entry, or only a
				// tombstone — is a transaction that wrote nothing.
				for _, k := range []string{"absent", "gone"} {
					if err := db.DeleteKey(ctx, k); !IsKeyNotFound(err) {
						t.Fatalf("Delete(%q) = %v, want ErrKeyNotFound", k, err)
					}
				}
			}
			if db.Log().NextLSN() != next || db.Log().Syncs() != syncs {
				t.Fatalf("reads moved the log: tail %d -> %d, syncs %d -> %d",
					next, db.Log().NextLSN(), syncs, db.Log().Syncs())
			}

			if _, err := db.Exec(ctx, "INSERT INTO orders VALUES (4, 11, 5)"); err != nil {
				t.Fatal(err)
			}
			if err := db.Put(ctx, "k", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if got := db.Log().Syncs() - syncs; got != 2 {
				t.Fatalf("two writes forced the log %d times", got)
			}
		})
	}
}

// TestOldIndexFormatIsRefused: a store whose KV index carries the
// metadata magic of the packed node format does not open. The typed
// error (E1102, next to the log's E1101) survives sbdms.Open.
func TestOldIndexFormatIsRefused(t *testing.T) {
	path := t.TempDir() + "/data.db"
	logDir := wal.NewMemSegmentDir()
	openDev := func() storage.Device {
		d, err := storage.OpenFileDevice(path)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	db, err := Open(Options{Device: openDev(), LogDir: logDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	meta := db.kv.idx.MetaID()
	if err := db.Close(ctx); err != nil {
		t.Fatal(err)
	}

	dev := openDev()
	disk, err := storage.OpenDisk(dev)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, storage.PageSize)
	if err := disk.ReadPage(meta, buf); err != nil {
		t.Fatal(err)
	}
	copy(storage.WrapPage(meta, buf).Payload(), "1TBSMDBS") // "SBDMSBT1", little-endian
	if err := disk.WritePage(meta, buf); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = Open(Options{Device: openDev(), LogDir: logDir})
	var coded *wal.CodedError
	if !errors.Is(err, index.ErrFormat) || !errors.As(err, &coded) || coded.Code != 1102 {
		t.Fatalf("Open over a packed-format index: %v, want E1102", err)
	}
}

// TestFreshKeyPutLogsLittle: a Put of a fresh key into a B+tree leaf
// with room logs the new heap cell, the new index cell and the slots it
// shifts, not the leaf's tail — under 1,000 bytes of log in all.
func TestFreshKeyPutLogsLittle(t *testing.T) {
	db, err := Open(Options{Device: storage.NewMemDevice(), Granularity: Monolithic})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(ctx)
	for i := 0; i < 280; i += 2 {
		if err := db.Put(ctx, fmt.Sprintf("key-%04d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if h, err := db.kv.idx.Height(); err != nil || h != 1 {
		t.Fatalf("tree height %d, %v; want one leaf", h, err)
	}
	before := db.Log().NextLSN()
	if err := db.Put(ctx, "key-0141", []byte("value")); err != nil {
		t.Fatal(err)
	}
	if n := db.Log().NextLSN() - before; n > 1000 {
		t.Fatalf("a fresh-key Put into the middle of a leaf logged %d bytes, want <= 1000", n)
	}
}
