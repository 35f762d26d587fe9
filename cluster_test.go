package sbdms_test

// The deterministic cluster fault harness: one sbdms database sharded
// over replicated nodes, driven through injected transport and device
// faults. Every fault is armed explicitly (counter- or set-based, no
// randomness), so each schedule replays the same way at any GOMAXPROCS.
//
// The invariants proven here:
//   - zero lost acknowledged writes: a write acked under async commit
//     survives leader kill -9 + failover (the record reached a
//     follower's WAL copy before the ack);
//   - atomic failover: an unacknowledged write is either fully
//     committed or absent after promotion — never torn (promotion runs
//     REAL crash recovery over the follower's replicated WAL);
//   - frontier visibility: a follower never serves a read above its
//     replicated frontier, and never a torn prefix of a batch;
//   - catch-up across truncation: a follower that lagged past leader
//     checkpoint truncation re-syncs through the typed
//     ErrSnapshotNeeded full-state bootstrap path;
//   - no split brain: a partitioned follower keeps rejecting writes
//     and serves only frontier-consistent snapshots until healed.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	sbdms "repro"
	"repro/internal/cluster"
)

func clusterKeys(prefix string, n int) ([]string, [][]byte) {
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%04d", prefix, i)
		vals[i] = []byte(fmt.Sprintf("val-of-%s-%04d", prefix, i))
	}
	return keys, vals
}

// nudgeAndWait writes a throwaway key after the workload and waits for
// every listed follower to reach the workload's visibility frontier.
// The nudge commit's ship batch samples its frontier after the
// workload's commits completed, so the followers' frontiers provably
// pass the workload.
func nudgeAndWait(t *testing.T, c *cluster.Cluster, r *cluster.Router, tag string, shards ...int) {
	t.Helper()
	ctx := context.Background()
	m := c.Map()
	want := make(map[int]uint64)
	for _, s := range shards {
		want[s] = c.Node(m.Shards[s].Leader).DB().Txns().Oracle().VisibleTS()
	}
	if err := r.Put(ctx, "zz-nudge-"+tag, []byte("nudge")); err != nil {
		t.Fatalf("nudge put: %v", err)
	}
	awaitFrontiers(t, c, want)
}

// awaitFrontiers waits until every follower of each listed shard has a
// replicated frontier at or above the shard's wanted timestamp.
func awaitFrontiers(t *testing.T, c *cluster.Cluster, want map[int]uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for s, ts := range want {
		for _, f := range c.Map().Shards[s].Followers {
			for {
				if rd := c.Node(f).Reader(); rd != nil && rd.Frontier() >= ts {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("follower %s frontier stalled below %d", f, ts)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
}

func closeCluster(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	//lint:ignore ctxflow test teardown
	if err := c.Close(context.Background()); err != nil {
		t.Errorf("cluster close: %v", err)
	}
}

// TestClusterReplicationBasic proves the plumbing end to end: sharded
// writes through the router, follower bootstrap via the snapshot path,
// and frontier-consistent snapshot reads on every replica.
func TestClusterReplicationBasic(t *testing.T) {
	c, err := cluster.New(cluster.Config{Shards: 2, Followers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeCluster(t, c)
	r := c.Router()
	ctx := context.Background()

	n := 60
	if testing.Short() {
		n = 24
	}
	keys, vals := clusterKeys("basic", n)
	for i := range keys {
		if err := r.Put(ctx, keys[i], vals[i]); err != nil {
			t.Fatalf("put %s: %v", keys[i], err)
		}
	}
	for i := range keys {
		got, err := r.Get(ctx, keys[i])
		if err != nil || string(got) != string(vals[i]) {
			t.Fatalf("get %s = %q, %v", keys[i], got, err)
		}
	}
	total, err := r.Len(ctx)
	if err != nil || total != uint64(n) {
		t.Fatalf("len = %d, %v (want %d)", total, err, n)
	}

	nudgeAndWait(t, c, r, "basic", 0, 1)

	// Followers came up empty, so each must have taken the full-state
	// bootstrap path at least once.
	m := c.Map()
	for _, sh := range m.Shards {
		for _, f := range sh.Followers {
			if c.Node(f).Bootstraps() == 0 {
				t.Fatalf("follower %s never bootstrapped", f)
			}
		}
	}

	// Snapshot reads (router prefers followers) see every workload key.
	for i := range keys {
		got, err := r.GetSnapshot(ctx, keys[i])
		if err != nil || string(got) != string(vals[i]) {
			t.Fatalf("snapshot get %s = %q, %v", keys[i], got, err)
		}
	}
	scan, err := r.ScanKeysSnapshot(ctx, "", n+10)
	if err != nil {
		t.Fatalf("snapshot scan: %v", err)
	}
	// All workload keys are at or below the awaited frontier; the nudge
	// key itself may still be above it.
	workload := 0
	for _, k := range scan {
		if len(k) > 5 && k[:5] == "basic" {
			workload++
		}
	}
	if workload != n {
		t.Fatalf("snapshot scan found %d workload keys, want %d", workload, n)
	}
}

// TestClusterAsyncCommitLeaderKill is the headline schedule: async
// commit acks writes once a follower holds the WAL record — before any
// local fsync — then the leader dies mid-stream (kill -9: transport
// dark, device failing every access, nothing flushed). Failover
// promotes the follower through real crash recovery. Every acked write
// must survive; a write the dead leader never shipped must be absent.
func TestClusterAsyncCommitLeaderKill(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Shards: 1, Followers: 1,
		AsyncCommit: true, AckTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeCluster(t, c)
	r := c.Router()
	ctx := context.Background()
	leader := cluster.LeaderID(0)

	// Warm-up: the first write triggers the follower's initial
	// bootstrap, whose exclusive write gate interrupts concurrent
	// ack-waits (they fall back to a local fsync). Get that out of the
	// way, then baseline the fallback counter: the measured workload
	// must be acked purely by replication.
	if err := r.Put(ctx, "warmup", []byte("w")); err != nil {
		t.Fatal(err)
	}
	nudgeAndWait(t, c, r, "warmup", 0)
	fbBase := c.Node(leader).AckFallbacks()

	n := 30
	if testing.Short() {
		n = 12
	}
	keys, vals := clusterKeys("acked", n)
	for i := range keys {
		if err := r.Put(ctx, keys[i], vals[i]); err != nil {
			t.Fatalf("acked put %s: %v", keys[i], err)
		}
	}
	// Every ack above must have come from the follower, not from the
	// local-fsync degraded path — otherwise survival proves nothing.
	if fb := c.Node(leader).AckFallbacks(); fb != fbBase {
		t.Fatalf("%d async commits fell back to local fsync; schedule not testing replication", fb-fbBase)
	}
	// The leader's own WAL was never fsynced for these commits: the
	// only durable copy is the follower's.
	nudgeAndWait(t, c, r, "acked", 0)

	// kill -9 the leader, then attempt one more write: the follower ack
	// can't arrive (ship loop stopped) and the local fallback hits the
	// crashed device, so the put must fail — and must stay failed
	// (absent) after failover, because its records never left the node.
	c.Kill(leader)
	putCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	err = r.Put(putCtx, "lost-key", []byte("never-acked"))
	cancel()
	if err == nil {
		t.Fatal("put on killed leader reported success")
	}

	recovery, err := c.Failover(0)
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	t.Logf("failover recovery took %v", recovery)

	// Zero lost acknowledged writes.
	for i := range keys {
		got, err := r.Get(ctx, keys[i])
		if err != nil || string(got) != string(vals[i]) {
			t.Fatalf("acked write lost after failover: %s = %q, %v", keys[i], got, err)
		}
	}
	// The unacknowledged write is absent everywhere.
	if _, err := r.Get(ctx, "lost-key"); !errors.Is(err, sbdms.ErrKeyNotFound) {
		t.Fatalf("unacked key after failover: err = %v, want ErrKeyNotFound", err)
	}
	// The promoted engine is a real leader: writes work again.
	if err := r.Put(ctx, "post-failover", []byte("alive")); err != nil {
		t.Fatalf("post-failover put: %v", err)
	}
	got, err := r.Get(ctx, "post-failover")
	if err != nil || string(got) != "alive" {
		t.Fatalf("post-failover get = %q, %v", got, err)
	}
	total, err := r.Len(ctx)
	if err != nil {
		t.Fatalf("len after failover: %v", err)
	}
	want := uint64(n + 4) // workload + warmup + 2 nudges + post-failover
	if total != want {
		t.Fatalf("len after failover = %d, want %d", total, want)
	}
}

// TestClusterFollowerCatchUpAcrossTruncation isolates the follower,
// runs the leader far ahead — across checkpoints that truncate the WAL
// segments the follower would have needed — then heals. The follower
// must detect the gap, take the typed full-state bootstrap, and catch
// all the way up.
func TestClusterFollowerCatchUpAcrossTruncation(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Shards: 1, Followers: 1,
		WALSegmentBytes: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeCluster(t, c)
	r := c.Router()
	ctx := context.Background()
	leader, follower := cluster.LeaderID(0), cluster.FollowerID(0, 0)

	aKeys, aVals := clusterKeys("phase-a", 20)
	for i := range aKeys {
		if err := r.Put(ctx, aKeys[i], aVals[i]); err != nil {
			t.Fatal(err)
		}
	}
	nudgeAndWait(t, c, r, "phase-a", 0)
	baseBoots := c.Node(follower).Bootstraps()

	// Partition the follower away and run the leader far ahead.
	c.Faults().Isolate(follower)
	bn := 300
	if testing.Short() {
		bn = 80
	}
	bKeys, bVals := clusterKeys("phase-b", bn)
	for i := range bKeys {
		if err := r.Put(ctx, bKeys[i], bVals[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoints truncate segments the isolated follower never saw
	// (the ship queue drained — deliveries failed — so retention does
	// not pin them).
	db := c.Node(leader).DB()
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// Heal; the next shipped batch gaps, forcing a fresh bootstrap.
	c.Faults().Heal()
	nudgeAndWait(t, c, r, "heal", 0)
	if boots := c.Node(follower).Bootstraps(); boots <= baseBoots {
		t.Fatalf("follower healed without re-bootstrap (boots %d -> %d)", baseBoots, boots)
	}

	// Caught up: the follower serves phase A and phase B at its
	// frontier.
	rd := c.Node(follower).Reader()
	for i := range aKeys {
		got, err := rd.GetSnapshot(ctx, aKeys[i])
		if err != nil || string(got) != string(aVals[i]) {
			t.Fatalf("follower missing %s after catch-up: %q, %v", aKeys[i], got, err)
		}
	}
	for i := range bKeys {
		got, err := rd.GetSnapshot(ctx, bKeys[i])
		if err != nil || string(got) != string(bVals[i]) {
			t.Fatalf("follower missing %s after catch-up: %q, %v", bKeys[i], got, err)
		}
	}
}

// TestClusterPartitionHealNoSplitBrain partitions a follower, updates
// the leader, and checks both sides of the split: the follower keeps
// rejecting writes (typed ErrNotLeader — no second leader), its
// snapshot reads stay pinned at the pre-partition frontier (stale but
// consistent, never above the applied LSN), and after the heal it
// converges to the leader's state.
func TestClusterPartitionHealNoSplitBrain(t *testing.T) {
	c, err := cluster.New(cluster.Config{Shards: 2, Followers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeCluster(t, c)
	r := c.Router()
	ctx := context.Background()
	// Partition the follower of whichever shard owns the pivot key —
	// the hash decides, the test follows.
	sid := c.Map().ShardFor("pivot")
	follower := cluster.FollowerID(sid, 0)

	if err := r.Put(ctx, "pivot", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	base, baseVals := clusterKeys("pre", 20)
	for i := range base {
		if err := r.Put(ctx, base[i], baseVals[i]); err != nil {
			t.Fatal(err)
		}
	}
	nudgeAndWait(t, c, r, "pre", 0, 1)

	fn := c.Node(follower)

	// Split: the follower is unreachable from leader and router. The
	// frontier baseline is sampled after the split so a last heartbeat
	// cannot slip in between.
	c.Faults().Isolate(follower)
	frontierBefore := fn.Reader().Frontier()
	if err := r.Put(ctx, "pivot", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	during, duringVals := clusterKeys("during", 10)
	for i := range during {
		if err := r.Put(ctx, during[i], duringVals[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The follower only ever replicates its own shard's keys; assert
	// convergence on those.
	var mine []int
	for i := range during {
		if c.Map().ShardFor(during[i]) == sid {
			mine = append(mine, i)
		}
	}
	if len(mine) == 0 {
		t.Fatal("no mid-partition key landed on the pivot shard")
	}

	// (a) A client on the follower's side of the partition cannot make
	// it accept writes: typed wrong-role rejection, no split brain.
	reg, err := fn.Registry().Lookup(cluster.KVServiceName)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sbdms.KVPut.Invoke(ctx, reg.Invoker, sbdms.KVPutRequest{Epoch: c.Map().Epoch, Key: "rogue", Val: []byte("x")})
	if !cluster.IsNotLeader(err) {
		t.Fatalf("partitioned follower accepted a write: err = %v", err)
	}

	// (b) Its snapshot reads stay at the stale-but-consistent frontier:
	// the old pivot value, and no key from inside the partition window.
	if got, err := fn.Reader().GetSnapshot(ctx, "pivot"); err != nil || string(got) != "v1" {
		t.Fatalf("partitioned follower pivot = %q, %v (want v1)", got, err)
	}
	if _, err := fn.Reader().GetSnapshot(ctx, during[mine[0]]); !errors.Is(err, sbdms.ErrKeyNotFound) {
		t.Fatalf("partitioned follower sees mid-partition key: %v", err)
	}
	if f := fn.Reader().Frontier(); f != frontierBefore {
		t.Fatalf("partitioned follower frontier moved: %d -> %d", frontierBefore, f)
	}

	// (c) The router, unable to reach the follower, falls back to the
	// leader and serves fresh snapshots — stale replicas are bypassed,
	// not trusted.
	if got, err := r.GetSnapshot(ctx, "pivot"); err != nil || string(got) != "v2" {
		t.Fatalf("router snapshot during partition = %q, %v (want v2)", got, err)
	}

	// Heal and converge.
	c.Faults().Heal()
	nudgeAndWait(t, c, r, "heal", 0, 1)
	if got, err := fn.Reader().GetSnapshot(ctx, "pivot"); err != nil || string(got) != "v2" {
		t.Fatalf("healed follower pivot = %q, %v (want v2)", got, err)
	}
	for _, i := range mine {
		got, err := fn.Reader().GetSnapshot(ctx, during[i])
		if err != nil || string(got) != string(duringVals[i]) {
			t.Fatalf("healed follower missing %s: %q, %v", during[i], got, err)
		}
	}
}

// TestClusterDuplicateAndDroppedShipments arms message-level faults on
// the replication stream: dropped deliveries must self-heal through the
// gap/bootstrap path, duplicated deliveries must be idempotent (WAL
// dedup + pageLSN-guarded redo), and the replicated state must end
// byte-for-byte right either way.
func TestClusterDuplicateAndDroppedShipments(t *testing.T) {
	c, err := cluster.New(cluster.Config{Shards: 1, Followers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeCluster(t, c)
	r := c.Router()
	ctx := context.Background()
	follower := cluster.FollowerID(0, 0)

	seed, seedVals := clusterKeys("seed", 10)
	for i := range seed {
		if err := r.Put(ctx, seed[i], seedVals[i]); err != nil {
			t.Fatal(err)
		}
	}
	nudgeAndWait(t, c, r, "seed", 0)

	// Drop the next few deliveries to the follower, keep writing.
	c.Faults().DropNext(follower, 3)
	dropped, droppedVals := clusterKeys("dropped", 15)
	for i := range dropped {
		if err := r.Put(ctx, dropped[i], droppedVals[i]); err != nil {
			t.Fatal(err)
		}
	}
	nudgeAndWait(t, c, r, "post-drop", 0)

	// Duplicate the next deliveries: every record arrives twice.
	c.Faults().DuplicateNext(follower, 5)
	duped, dupedVals := clusterKeys("duped", 15)
	for i := range duped {
		if err := r.Put(ctx, duped[i], dupedVals[i]); err != nil {
			t.Fatal(err)
		}
	}
	nudgeAndWait(t, c, r, "post-dup", 0)

	if c.Faults().Dropped() == 0 {
		t.Fatal("drop fault never fired")
	}
	if c.Faults().Duplicated() == 0 {
		t.Fatal("duplicate fault never fired")
	}

	rd := c.Node(follower).Reader()
	for _, set := range []struct {
		keys []string
		vals [][]byte
	}{{seed, seedVals}, {dropped, droppedVals}, {duped, dupedVals}} {
		for i := range set.keys {
			got, err := rd.GetSnapshot(ctx, set.keys[i])
			if err != nil || string(got) != string(set.vals[i]) {
				t.Fatalf("follower %s = %q, %v", set.keys[i], got, err)
			}
		}
	}
}

// TestClusterNetbind runs the basic replication schedule over real TCP
// (netbind transport) instead of in-process dispatch: same services,
// same wire types, gob-flattened errors still matched by the typed
// helpers.
func TestClusterNetbind(t *testing.T) {
	if testing.Short() {
		t.Skip("netbind cluster exercised in full mode")
	}
	c, err := cluster.New(cluster.Config{Shards: 2, Followers: 1, UseNetbind: true})
	if err != nil {
		t.Fatal(err)
	}
	defer closeCluster(t, c)
	r := c.Router()
	ctx := context.Background()

	keys, vals := clusterKeys("net", 30)
	if err := r.PutBatch(ctx, keys, vals); err != nil {
		t.Fatalf("putBatch over netbind: %v", err)
	}
	for i := range keys {
		got, err := r.Get(ctx, keys[i])
		if err != nil || string(got) != string(vals[i]) {
			t.Fatalf("get %s over netbind = %q, %v", keys[i], got, err)
		}
	}
	nudgeAndWait(t, c, r, "net", 0, 1)
	scan, err := r.ScanKeysSnapshot(ctx, "", 100)
	if err != nil {
		t.Fatalf("snapshot scan over netbind: %v", err)
	}
	// The nudge key itself may still be above the awaited frontier.
	if n := len(scan); n != len(keys) && n != len(keys)+1 {
		t.Fatalf("snapshot scan over netbind found %d keys, want %d workload keys (+1 nudge)", n, len(keys))
	}
}
