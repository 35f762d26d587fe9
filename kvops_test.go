package sbdms_test

// Conformance of the KV operation table (kvops.go): one script run
// against every provider of the KV operations must read the same, and
// every row of the table must behave the same way at every service
// boundary. A new row without a sample request below fails the suite.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	sbdms "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netbind"
)

var _ sbdms.KVBackend = (*cluster.Router)(nil)

// kvProvider is one way of reaching the KV operations.
type kvProvider struct {
	name string
	// open returns the backend and a settle function that waits until
	// snapshot reads see every acknowledged write (replication lag).
	open func(t *testing.T) (kv sbdms.KVBackend, settle func())
}

func openGranularity(t *testing.T, g sbdms.Granularity) *sbdms.DB {
	t.Helper()
	db, err := sbdms.Open(sbdms.Options{Granularity: g, BufferFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close(context.Background()) })
	if db.Granularity() != g {
		t.Fatalf("granularity = %s, want %s", db.Granularity(), g)
	}
	return db
}

func openCluster(t *testing.T, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeCluster(t, c) })
	return c
}

// awaitFollowers waits until every follower has caught up with its
// leader's visibility frontier (idle heartbeats carry it).
func awaitFollowers(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	want := make(map[int]uint64)
	for s, sh := range c.Map().Shards {
		want[s] = c.Node(sh.Leader).DB().Txns().Oracle().VisibleTS()
	}
	awaitFrontiers(t, c, want)
}

func kvProviders() []kvProvider {
	local := func(g sbdms.Granularity) kvProvider {
		return kvProvider{string(g), func(t *testing.T) (sbdms.KVBackend, func()) {
			return openGranularity(t, g).KV(), func() {}
		}}
	}
	routed := func(name string, netbind bool) kvProvider {
		return kvProvider{name, func(t *testing.T) (sbdms.KVBackend, func()) {
			c := openCluster(t, cluster.Config{Shards: 2, Followers: 1, UseNetbind: netbind})
			return c.Router(), func() { awaitFollowers(t, c) }
		}}
	}
	return []kvProvider{
		local(sbdms.Monolithic), // the native core, no service hop: the reference
		local(sbdms.Coarse), local(sbdms.Layered), local(sbdms.Fine),
		{"layered-netbind", func(t *testing.T) (sbdms.KVBackend, func()) {
			db := openGranularity(t, sbdms.Layered)
			srv, err := netbind.Serve(db.Kernel().Registry(), "")
			if err != nil {
				t.Fatal(err)
			}
			client := netbind.NewClient(srv.Addr())
			t.Cleanup(func() { _ = client.Close(); _ = srv.Close() })
			return sbdms.NewKVClient(client.InvokerFor("kv")), func() {}
		}},
		routed("cluster-local", false),
		routed("cluster-netbind", true),
	}
}

// errClass reduces an error to what must agree across providers (remote
// bindings flatten error values to text).
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case sbdms.IsKeyNotFound(err):
		return "not-found"
	case strings.Contains(err.Error(), sbdms.ErrBatchMismatch.Error()):
		return "batch-mismatch"
	}
	return "error: " + err.Error()
}

// kvScript exercises every row of the table and returns a transcript.
func kvScript(t *testing.T, kv sbdms.KVBackend, settle func()) []string {
	ctx := context.Background()
	var out []string
	say := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }

	var keys []string
	var vals [][]byte
	for i := 0; i < 10; i++ {
		keys, vals = append(keys, key(i)), append(vals, []byte("v-"+key(i)))
	}
	say("import: %s", errClass(kv.Import(ctx, keys, vals)))
	say("put: %s", errClass(kv.Put(ctx, key(10), []byte("ten"))))
	say("put overwrite: %s", errClass(kv.Put(ctx, key(0), []byte("replaced"))))
	say("put empty value: %s", errClass(kv.Put(ctx, key(13), nil)))
	say("put empty key: %s", errClass(kv.Put(ctx, "", []byte("empty"))))
	say("putBatch: %s", errClass(kv.PutBatch(ctx, []string{key(11), key(12)}, [][]byte{[]byte("eleven"), []byte("twelve")})))
	say("putBatch mismatch: %s", errClass(kv.PutBatch(ctx, []string{"x", "y"}, [][]byte{[]byte("1")})))
	say("delete: %s", errClass(kv.Delete(ctx, key(1))))
	say("delete missing: %s", errClass(kv.Delete(ctx, "missing")))
	for _, k := range []string{key(0), key(5), key(12), key(13), key(1), "missing"} {
		v, err := kv.Get(ctx, k)
		say("get %s: %q %s", k, v, errClass(err))
	}
	scan, err := kv.Scan(ctx, key(3), 4)
	say("scan: %v %s", scan, errClass(err))
	// "" is a legal key and sorts first: a scan from "" returns it.
	scan, err = kv.Scan(ctx, "", 2)
	say("scan from empty key: %q %s", scan, errClass(err))
	if err == nil && (len(scan) != 2 || scan[0] != "" || scan[1] != key(0)) {
		t.Errorf("scan from \"\" = %q, want [\"\" %q]", scan, key(0))
	}
	n, err := kv.Len(ctx)
	say("len: %d %s", n, errClass(err))

	settle()
	for _, k := range []string{key(0), key(12), key(13), key(1)} {
		v, err := kv.GetSnapshot(ctx, k)
		say("getSnapshot %s: %q %s", k, v, errClass(err))
	}
	scan, err = kv.ScanKeysSnapshot(ctx, "", 100)
	say("scanSnapshot: %v %s", scan, errClass(err))
	return out
}

// TestKVConformanceAcrossProviders: the native core, the three service
// granularities, a node served over netbind and a sharded replicated
// cluster over both transports all answer the script identically.
func TestKVConformanceAcrossProviders(t *testing.T) {
	var want []string
	for _, p := range kvProviders() {
		t.Run(p.name, func(t *testing.T) {
			kv, settle := p.open(t)
			got := kvScript(t, kv, settle)
			if want == nil {
				want = got
				for _, line := range got {
					if strings.Contains(line, "error: ") {
						t.Errorf("reference transcript: %s", line)
					}
				}
				return
			}
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if i >= len(got) || got[i] != want[i] {
						t.Errorf("line %d:\n  got  %s\n  want %s", i, got[i], want[i])
					}
				}
			}
		})
	}
}

// opCase is one table row with a well-formed sample request, in value
// and pointer form, planned under a given epoch.
type opCase struct {
	op  *sbdms.KVOp
	req func(epoch uint64) (val, ptr any)
}

func caseOf[Req sbdms.KVRequest[Req], Rep any](op sbdms.KVOpOf[Req, Rep], req Req) opCase {
	return opCase{op.KVOp, func(e uint64) (any, any) { r := req.At(e); return r, &r }}
}

func opCases(t *testing.T) []opCase {
	t.Helper()
	cases := []opCase{
		caseOf(sbdms.KVGet, sbdms.KVKeyRequest{Key: "present"}),
		caseOf(sbdms.KVPut, sbdms.KVPutRequest{Key: "put", Val: []byte("v")}),
		caseOf(sbdms.KVPutBatch, sbdms.KVBatchRequest{Keys: []string{"b1", "b2"}, Vals: [][]byte{[]byte("1"), []byte("2")}}),
		caseOf(sbdms.KVImport, sbdms.KVBatchRequest{Keys: []string{"i1", "i2"}, Vals: [][]byte{[]byte("1"), []byte("2")}}),
		caseOf(sbdms.KVDelete, sbdms.KVKeyRequest{Key: "doomed"}),
		caseOf(sbdms.KVScan, sbdms.KVScanRequest{Key: "", N: 10}),
		caseOf(sbdms.KVGetSnapshot, sbdms.KVKeyRequest{Key: "present"}),
		caseOf(sbdms.KVScanSnapshot, sbdms.KVScanRequest{Key: "", N: 10}),
		caseOf(sbdms.KVLen, sbdms.KVLenRequest{}),
	}
	if len(cases) != len(sbdms.KVOps) {
		t.Fatalf("%d sample requests for %d table rows", len(cases), len(sbdms.KVOps))
	}
	for i, c := range cases {
		if c.op != sbdms.KVOps[i] {
			t.Fatalf("case %d is %s, table row %d is %s", i, c.op.Name, i, sbdms.KVOps[i].Name)
		}
	}
	return cases
}

// checkBoundary asserts what every row promises at a service boundary:
// a wrong-typed request is a RequestError naming the operation, and the
// value and pointer forms of a well-formed request are both accepted
// (the second delete finds its key gone: a data error, not a rejection).
func checkBoundary(t *testing.T, inv core.Invoker, c opCase, epoch uint64) {
	t.Helper()
	ctx := context.Background()
	_, err := inv.Invoke(ctx, c.op.Name, 42)
	var re *core.RequestError
	if !errors.As(err, &re) || re.Op != c.op.Name || re.Want != c.op.In {
		t.Errorf("%s(42) = %v, want a RequestError naming %s and %s", c.op.Name, err, c.op.Name, c.op.In)
	}
	val, ptr := c.req(epoch)
	for _, req := range []any{ptr, val} {
		if _, err := inv.Invoke(ctx, c.op.Name, req); err != nil && !sbdms.IsKeyNotFound(err) {
			t.Errorf("%s(%T) = %v", c.op.Name, req, err)
		}
	}
}

func seed(t *testing.T, kv sbdms.KVBackend) {
	t.Helper()
	for _, k := range []string{"present", "doomed"} {
		if err := kv.Put(context.Background(), k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKVOpsAtLocalBoundaries runs checkBoundary on the kv and record
// services of a layered store.
func TestKVOpsAtLocalBoundaries(t *testing.T) {
	for _, iface := range []string{sbdms.IfaceKV, sbdms.IfaceRecord} {
		db := openGranularity(t, sbdms.Layered)
		seed(t, db.KV())
		ref := db.Kernel().Ref(iface, nil)
		for _, c := range opCases(t) {
			checkBoundary(t, ref, c, 0)
		}
	}
}

func shardKV(t *testing.T, n *cluster.Node) core.Invoker {
	t.Helper()
	reg, err := n.Registry().Lookup(cluster.KVServiceName)
	if err != nil {
		t.Fatal(err)
	}
	return reg.Invoker
}

// TestKVOpsGuardedByClass: on a cluster node the operation's class alone
// decides the guard. Every class needs the node's epoch; leader reads
// and writes need the leader; snapshot reads are served by any node that
// holds state. A node that holds none (a closed leader, a follower never
// seeded) answers every row with a typed ErrNotLeader and never panics.
func TestKVOpsGuardedByClass(t *testing.T) {
	ctx := context.Background()
	c := openCluster(t, cluster.Config{Shards: 1, Followers: 1})
	seed(t, c.Router())
	awaitFollowers(t, c)
	epoch := c.Map().Epoch
	leader := shardKV(t, c.Node(cluster.LeaderID(0)))
	follower := shardKV(t, c.Node(cluster.FollowerID(0, 0)))

	closed, err := cluster.NewLeaderNode(cluster.NodeConfig{ID: "closed"}, cluster.NewLocalTransport())
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Close(ctx); err != nil {
		t.Fatal(err)
	}
	unseeded, err := cluster.NewFollowerNode(cluster.NodeConfig{ID: "unseeded"}, cluster.NewLocalTransport())
	if err != nil {
		t.Fatal(err)
	}

	for _, oc := range opCases(t) {
		checkBoundary(t, leader, oc, epoch)

		stale, _ := oc.req(epoch + 7)
		for name, inv := range map[string]core.Invoker{"leader": leader, "follower": follower} {
			if _, err := inv.Invoke(ctx, oc.op.Name, stale); !cluster.IsEpochChanged(err) {
				t.Errorf("%s on %s at a stale epoch = %v, want ErrEpochChanged", oc.op.Name, name, err)
			}
		}

		req, _ := oc.req(epoch)
		_, err := follower.Invoke(ctx, oc.op.Name, req)
		if snapshot := oc.op.Class == sbdms.KVSnapshotRead; snapshot && err != nil {
			t.Errorf("%s on a seeded follower = %v, want it served", oc.op.Name, err)
		} else if !snapshot && !cluster.IsNotLeader(err) {
			t.Errorf("%s on a follower = %v, want ErrNotLeader", oc.op.Name, err)
		}

		first, _ := oc.req(1) // a fresh node accepts epoch 1
		for name, n := range map[string]*cluster.Node{"closed leader": closed, "unseeded follower": unseeded} {
			if _, err := shardKV(t, n).Invoke(ctx, oc.op.Name, first); !cluster.IsNotLeader(err) {
				t.Errorf("%s on a %s = %v, want ErrNotLeader", oc.op.Name, name, err)
			}
		}
	}
}

// TestKVContractsListTheTable: the three contracts a KV provider can be
// known by list exactly the table's operations.
func TestKVContractsListTheTable(t *testing.T) {
	c := openCluster(t, cluster.Config{Shards: 1})
	reg, err := c.Node(cluster.LeaderID(0)).Registry().Lookup(cluster.KVServiceName)
	if err != nil {
		t.Fatal(err)
	}
	db := openGranularity(t, sbdms.Layered)
	served := func(iface string) *core.Contract {
		regs := db.Kernel().Registry().Discover(iface)
		if len(regs) != 1 {
			t.Fatalf("%d providers of %s", len(regs), iface)
		}
		return regs[0].Contract
	}
	for name, contract := range map[string]*core.Contract{
		"KVContract": sbdms.KVContract(), "RecordContract": sbdms.RecordContract(),
		"kv service": served(sbdms.IfaceKV), "record service": served(sbdms.IfaceRecord), "shardkv": reg.Contract,
	} {
		var got []core.OpSpec
		for _, op := range contract.Operations {
			if op.Name != core.PingOp {
				got = append(got, op)
			}
		}
		if len(got) != len(sbdms.KVOps) {
			t.Errorf("%s lists %d operations, the table has %d", name, len(got), len(sbdms.KVOps))
			continue
		}
		for i, op := range sbdms.KVOps {
			if got[i] != op.OpSpec || op.Semantic != "kv."+op.Name {
				t.Errorf("%s operation %d = %+v, table row = %+v", name, i, got[i], op.OpSpec)
			}
		}
	}
}

// countingTransport counts the node invocations a router makes.
type countingTransport struct {
	cluster.Transport
	calls int
}

func (t *countingTransport) Invoke(ctx context.Context, node cluster.NodeID, service, op string, req any) (any, error) {
	t.calls++
	return t.Transport.Invoke(ctx, node, service, op, req)
}

// TestKVRoutesMatchTheTable: a Router is itself a KVBackend, so a
// cluster can be served behind the plain KV contract; through that
// service every row reaches as many nodes as its routing shape says.
func TestKVRoutesMatchTheTable(t *testing.T) {
	ctx := context.Background()
	const shards = 3
	c := openCluster(t, cluster.Config{Shards: shards})
	seed(t, c.Router())
	tr := &countingTransport{Transport: c.Faults()}
	svc := sbdms.NewKVService("routed-kv", cluster.NewRouter(tr, func(context.Context) (*cluster.Map, error) {
		return c.Map(), nil
	}))
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for _, oc := range opCases(t) {
		req, _ := oc.req(0)
		before := tr.calls
		if _, err := svc.Invoke(ctx, oc.op.Name, req); err != nil {
			t.Errorf("%s through a routed KV service = %v", oc.op.Name, err)
		}
		want := map[sbdms.KVRoute]int{sbdms.KVByKey: 1, sbdms.KVFanOut: shards}[oc.op.Route]
		if batch, ok := req.(sbdms.KVBatchRequest); ok && oc.op.Route == sbdms.KVGrouped {
			owners := map[int]bool{}
			for _, k := range batch.Keys {
				owners[c.Map().ShardFor(k)] = true
			}
			want = len(owners)
		}
		if got := tr.calls - before; got != want {
			t.Errorf("%s reached %d nodes, its route says %d", oc.op.Name, got, want)
		}
	}
}
