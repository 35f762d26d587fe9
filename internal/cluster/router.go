package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	sbdms "repro"
)

// Router is the client side of the cluster: it fetches the shard map
// from the registry-published map service, routes every operation to
// the owning shard, and retries map-epoch rejections by refreshing and
// replanning the WHOLE operation. Multi-shard batches are planned under
// one epoch and every sub-request carries it, so a batch is either
// applied entirely under one map or entirely retried under the next —
// never split across epochs.
type Router struct {
	transport Transport
	fetch     func(ctx context.Context) (*Map, error)

	// MaxRetries bounds epoch-rejection replans (default 4). With 0 the
	// first rejection surfaces as a typed retryable ErrEpochChanged.
	MaxRetries int
	// RetryBackoff spaces replans while a map change propagates to
	// nodes (default 2ms).
	RetryBackoff time.Duration

	cur atomic.Pointer[Map]
}

// NewRouter creates a router fanning out through transport, refreshing
// its shard map via fetch.
func NewRouter(transport Transport, fetch func(ctx context.Context) (*Map, error)) *Router {
	return &Router{transport: transport, fetch: fetch, MaxRetries: 4, RetryBackoff: 2 * time.Millisecond}
}

// Map returns the router's current (possibly stale) shard map, fetching
// it on first use.
func (r *Router) Map(ctx context.Context) (*Map, error) {
	if m := r.cur.Load(); m != nil {
		return m, nil
	}
	return r.Refresh(ctx)
}

// Refresh re-fetches the shard map.
func (r *Router) Refresh(ctx context.Context) (*Map, error) {
	m, err := r.fetch(ctx)
	if err != nil {
		return nil, err
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("cluster: empty shard map at epoch %d", m.Epoch)
	}
	r.cur.Store(m)
	return m, nil
}

// withReplan runs fn against the current map, refreshing and fully
// re-running it on epoch or leadership rejections.
func (r *Router) withReplan(ctx context.Context, fn func(m *Map) error) error {
	m, err := r.Map(ctx)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		err = fn(m)
		if err == nil || (!IsEpochChanged(err) && !IsNotLeader(err) && !IsUnavailable(err)) {
			return err
		}
		if attempt >= r.MaxRetries {
			return fmt.Errorf("%w: %d replans exhausted (last: %v)", ErrEpochChanged, attempt+1, err)
		}
		if r.RetryBackoff > 0 {
			select {
			case <-time.After(r.RetryBackoff):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if m, err = r.Refresh(ctx); err != nil {
			return err
		}
	}
}

// invoke sends one operation to shard s and types its reply. The
// operation's class picks the replicas: a snapshot read tries the
// shard's first follower before the leader, every other class goes to
// the leader alone. Only reachability failures fall through to the next
// target; epoch rejections and data errors are authoritative.
func invoke[Req sbdms.KVRequest[Req], Rep any](ctx context.Context, r *Router, s Shard, op sbdms.KVOpOf[Req, Rep], req Req) (rep Rep, err error) {
	targets := []NodeID{s.Leader}
	if op.Class == sbdms.KVSnapshotRead && len(s.Followers) > 0 {
		targets = []NodeID{s.Followers[0], s.Leader}
	}
	var boxed any = req
	for _, t := range targets {
		rep, err = op.Reply(r.transport.Invoke(ctx, t, KVServiceName, op.Name, boxed))
		if sbdms.IsKeyNotFound(err) {
			return rep, sbdms.ErrKeyNotFound // the sentinel, even if a binding flattened it
		}
		if err == nil || IsEpochChanged(err) {
			break
		}
	}
	return rep, err
}

// byKey routes a KVByKey operation to the shard owning key.
func byKey[Req sbdms.KVRequest[Req], Rep any](ctx context.Context, r *Router, op sbdms.KVOpOf[Req, Rep], key string, req Req) (rep Rep, err error) {
	err = r.withReplan(ctx, func(m *Map) error {
		rep, err = invoke(ctx, r, m.Shards[m.ShardFor(key)], op, req.At(m.Epoch))
		return err
	})
	return rep, err
}

// fanOut sends a KVFanOut operation to every shard and merges replies.
func fanOut[Req sbdms.KVRequest[Req], Rep any](ctx context.Context, r *Router, op sbdms.KVOpOf[Req, Rep], req Req, merge func([]Rep) Rep) (out Rep, err error) {
	err = r.withReplan(ctx, func(m *Map) error {
		per, planned := make([]Rep, 0, len(m.Shards)), req.At(m.Epoch)
		for _, s := range m.Shards {
			rep, err := invoke(ctx, r, s, op, planned)
			if err != nil {
				return err
			}
			per = append(per, rep)
		}
		out = merge(per)
		return nil
	})
	return out, err
}

// Put writes one key through its shard leader.
func (r *Router) Put(ctx context.Context, key string, val []byte) error {
	_, err := byKey(ctx, r, sbdms.KVPut, key, sbdms.KVPutRequest{Key: key, Val: val})
	return err
}

// Delete removes one key through its shard leader.
func (r *Router) Delete(ctx context.Context, key string) error {
	_, err := byKey(ctx, r, sbdms.KVDelete, key, sbdms.KVKeyRequest{Key: key})
	return err
}

// Get reads one key's latest committed value from its shard leader.
func (r *Router) Get(ctx context.Context, key string) ([]byte, error) {
	return byKey(ctx, r, sbdms.KVGet, key, sbdms.KVKeyRequest{Key: key})
}

// GetSnapshot reads one key at the shard's replicated frontier,
// preferring a follower; an unreachable follower falls back to the
// leader's snapshot path.
func (r *Router) GetSnapshot(ctx context.Context, key string) ([]byte, error) {
	return byKey(ctx, r, sbdms.KVGetSnapshot, key, sbdms.KVKeyRequest{Key: key})
}

// PutBatch writes a batch. Keys are grouped by owning shard under ONE
// map epoch; every per-shard sub-batch carries that epoch and any
// rejection triggers a refresh and a FULL retry of the whole batch
// (puts are idempotent upserts, so shards that already applied their
// sub-batch simply converge).
func (r *Router) PutBatch(ctx context.Context, keys []string, vals [][]byte) error {
	return r.groupedWrite(ctx, sbdms.KVPutBatch, keys, vals)
}

// Import bulk-loads a batch, grouped by shard like PutBatch.
func (r *Router) Import(ctx context.Context, keys []string, vals [][]byte) error {
	return r.groupedWrite(ctx, sbdms.KVImport, keys, vals)
}

func (r *Router) groupedWrite(ctx context.Context, op sbdms.KVOpOf[sbdms.KVBatchRequest, bool], keys []string, vals [][]byte) error {
	if len(keys) != len(vals) {
		return sbdms.ErrBatchMismatch
	}
	return r.withReplan(ctx, func(m *Map) error {
		groups := make(map[int]*sbdms.KVBatchRequest)
		for i, k := range keys {
			sid := m.ShardFor(k)
			g := groups[sid]
			if g == nil {
				g = &sbdms.KVBatchRequest{Epoch: m.Epoch}
				groups[sid] = g
			}
			g.Keys = append(g.Keys, k)
			g.Vals = append(g.Vals, vals[i])
		}
		// Deterministic shard order keeps failures reproducible.
		sids := make([]int, 0, len(groups))
		for sid := range groups {
			sids = append(sids, sid)
		}
		sort.Ints(sids)
		for _, sid := range sids {
			if _, err := invoke(ctx, r, m.Shards[sid], op, *groups[sid]); err != nil {
				return err
			}
		}
		return nil
	})
}

// Scan merges each shard's ordered scan into one global in-order
// prefix of up to n keys starting at from.
func (r *Router) Scan(ctx context.Context, from string, n int) ([]string, error) {
	return r.scan(ctx, sbdms.KVScan, from, n)
}

// ScanKeysSnapshot merges per-shard snapshot scans (served at each
// shard's replicated frontier, follower-first).
func (r *Router) ScanKeysSnapshot(ctx context.Context, from string, n int) ([]string, error) {
	return r.scan(ctx, sbdms.KVScanSnapshot, from, n)
}

func (r *Router) scan(ctx context.Context, op sbdms.KVOpOf[sbdms.KVScanRequest, []string], from string, n int) ([]string, error) {
	return fanOut(ctx, r, op, sbdms.KVScanRequest{Key: from, N: n}, func(per [][]string) []string {
		return mergeSorted(per, n)
	})
}

// Len sums live key counts across shards.
func (r *Router) Len(ctx context.Context) (uint64, error) {
	return fanOut(ctx, r, sbdms.KVLen, sbdms.KVLenRequest{}, func(per []uint64) (total uint64) {
		for _, n := range per {
			total += n
		}
		return total
	})
}

// mergeSorted merges already-sorted per-shard key lists into the first
// n keys of their union (hash partitioning makes the lists disjoint).
func mergeSorted(per [][]string, n int) []string {
	var all []string
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Strings(all)
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}
