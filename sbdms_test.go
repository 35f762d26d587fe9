package sbdms

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
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
	if res.Failures != 0 {
		t.Fatalf("failures = %d", res.Failures)
	}
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

func TestScenarioSelection(t *testing.T) {
	ctx := context.Background()
	for _, g := range []Granularity{Coarse, Layered} {
		t.Run(string(g), func(t *testing.T) {
			db := openDB(t, g)
			res, err := ScenarioSelection(ctx, db, 200)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failures != 0 {
				t.Fatalf("failures = %d", res.Failures)
			}
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
	for _, g := range []Granularity{Coarse, Layered} {
		t.Run(string(g), func(t *testing.T) {
			db := openDB(t, g)
			res, err := ScenarioAdaptation(ctx, db, 200)
			if err != nil {
				t.Fatal(err)
			}
			// The system continues to operate (Figure 7), served
			// through a generated adaptor.
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

func TestDelayBindingProfile(t *testing.T) {
	// A binding applied to every service adds per-hop latency:
	// layered (2 hops) must be slower than coarse (1 hop).
	mk := func(g Granularity) time.Duration {
		db, err := Open(Options{
			Granularity: g,
			Binding:     core.DelayBinding{Delay: 2 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close(context.Background())
		start := time.Now()
		for i := 0; i < 5; i++ {
			if err := db.Put(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	coarse := mk(Coarse)
	layered := mk(Layered)
	if layered <= coarse {
		t.Fatalf("layered (%v) must pay more hops than coarse (%v)", layered, coarse)
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
