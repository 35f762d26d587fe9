package cluster

// Router correctness properties: partitioning is a function (every key
// owned by exactly one shard, stable across fetches and clones), and a
// multi-shard batch is planned under ONE map epoch — when the map bumps
// mid-batch the router either fully retries the whole batch under the
// new epoch or surfaces one typed retryable error. It never leaves a
// batch half-applied under mixed epochs.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	sbdms "repro"
)

func testMap(epoch uint64, shards int) *Map {
	m := &Map{Epoch: epoch}
	for s := 0; s < shards; s++ {
		m.Shards = append(m.Shards, Shard{
			Leader:    NodeID(fmt.Sprintf("s%d-leader", s)),
			Followers: []NodeID{NodeID(fmt.Sprintf("s%d-f0", s))},
		})
	}
	return m
}

func TestShardForExactlyOneOwner(t *testing.T) {
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i*7)
	}
	for shards := 1; shards <= 8; shards++ {
		m := testMap(1, shards)
		clone := m.Clone()
		counts := make([]int, shards)
		for _, k := range keys {
			s := m.ShardFor(k)
			if s < 0 || s >= shards {
				t.Fatalf("%d shards: key %q mapped out of range: %d", shards, k, s)
			}
			// The owner is a pure function of (key, shard count):
			// re-asking and asking a clone give the same answer.
			if again := m.ShardFor(k); again != s {
				t.Fatalf("%d shards: key %q unstable: %d then %d", shards, k, s, again)
			}
			if cs := clone.ShardFor(k); cs != s {
				t.Fatalf("%d shards: clone disagrees for %q: %d vs %d", shards, k, s, cs)
			}
			counts[s]++
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != len(keys) {
			t.Fatalf("%d shards: %d ownerships for %d keys", shards, total, len(keys))
		}
		if shards > 1 {
			for s, c := range counts {
				if c == 0 {
					t.Fatalf("%d shards: shard %d owns no keys (degenerate hash?)", shards, s)
				}
			}
		}
	}
}

// epochStore simulates the shard nodes' epoch-guarded putBatch handler:
// requests carrying a stale epoch are rejected with the typed error,
// accepted sub-batches are recorded with the epoch they arrived under.
type epochStore struct {
	mu      sync.Mutex
	epoch   uint64
	applied map[NodeID][]appliedBatch
	// afterApply runs after each accepted sub-batch (to bump the epoch
	// mid-batch, deterministically).
	afterApply func(s *epochStore)
}

type appliedBatch struct {
	epoch uint64
	keys  []string
}

func newEpochStore(epoch uint64) *epochStore {
	return &epochStore{epoch: epoch, applied: make(map[NodeID][]appliedBatch)}
}

func (s *epochStore) bump() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
}

func (s *epochStore) currentEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

func (s *epochStore) Invoke(_ context.Context, node NodeID, _, op string, req any) (any, error) {
	if op != sbdms.KVPutBatch.Name {
		return nil, fmt.Errorf("epochStore: unexpected op %q", op)
	}
	r, ok := req.(sbdms.KVBatchRequest)
	if !ok {
		return nil, fmt.Errorf("epochStore: unexpected request %T", req)
	}
	s.mu.Lock()
	if r.Epoch != s.epoch {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: want %d, got %d", ErrEpochChanged, s.epoch, r.Epoch)
	}
	s.applied[node] = append(s.applied[node], appliedBatch{epoch: r.Epoch, keys: append([]string(nil), r.Keys...)})
	after := s.afterApply
	s.mu.Unlock()
	if after != nil {
		after(s)
	}
	return true, nil
}

// checkConverged asserts the final state: under the final epoch, each
// shard applied exactly its full group of the batch — no shard holds a
// partial group from a retired epoch as its latest word.
func checkConverged(t *testing.T, store *epochStore, m *Map, keys []string) {
	t.Helper()
	final := store.currentEpoch()
	wantPerShard := make(map[NodeID]map[string]bool)
	for _, k := range keys {
		leader := m.Shards[m.ShardFor(k)].Leader
		if wantPerShard[leader] == nil {
			wantPerShard[leader] = make(map[string]bool)
		}
		wantPerShard[leader][k] = true
	}
	store.mu.Lock()
	defer store.mu.Unlock()
	for leader, want := range wantPerShard {
		batches := store.applied[leader]
		if len(batches) == 0 {
			t.Fatalf("shard %s never applied its group", leader)
		}
		last := batches[len(batches)-1]
		if last.epoch != final {
			t.Fatalf("shard %s latest batch under epoch %d, final epoch %d", leader, last.epoch, final)
		}
		if len(last.keys) != len(want) {
			t.Fatalf("shard %s applied %d keys under final epoch, want %d", leader, len(last.keys), len(want))
		}
		for _, k := range last.keys {
			if !want[k] {
				t.Fatalf("shard %s applied foreign key %q", leader, k)
			}
		}
	}
}

func TestRouterBatchEpochBumpFullRetry(t *testing.T) {
	store := newEpochStore(1)
	m := testMap(1, 3)
	fired := false
	store.afterApply = func(s *epochStore) {
		// The map moves after the FIRST shard's sub-batch is applied:
		// the remaining sub-batches of this plan are now stale.
		if !fired {
			fired = true
			s.bump()
		}
	}
	r := NewRouter(store, func(ctx context.Context) (*Map, error) {
		cur := m.Clone()
		cur.Epoch = store.currentEpoch()
		return cur, nil
	})
	r.RetryBackoff = 0

	keys := make([]string, 60)
	vals := make([][]byte, 60)
	for i := range keys {
		keys[i] = fmt.Sprintf("batch-%04d", i)
		vals[i] = []byte("v")
	}
	if err := r.PutBatch(context.Background(), keys, vals); err != nil {
		t.Fatalf("PutBatch after mid-batch bump: %v", err)
	}
	if !fired {
		t.Fatal("epoch bump never armed — batch landed on one shard?")
	}
	checkConverged(t, store, m, keys)
}

func TestRouterBatchEpochBumpTypedErrorWithoutRetries(t *testing.T) {
	store := newEpochStore(1)
	m := testMap(1, 3)
	fired := false
	store.afterApply = func(s *epochStore) {
		if !fired {
			fired = true
			s.bump()
		}
	}
	r := NewRouter(store, func(ctx context.Context) (*Map, error) {
		cur := m.Clone()
		cur.Epoch = store.currentEpoch()
		return cur, nil
	})
	r.MaxRetries = 0
	r.RetryBackoff = 0

	keys := make([]string, 40)
	vals := make([][]byte, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("typed-%04d", i)
		vals[i] = []byte("v")
	}
	err := r.PutBatch(context.Background(), keys, vals)
	if err == nil {
		t.Fatal("mid-batch bump with MaxRetries=0: want typed retryable error, got nil")
	}
	if !IsEpochChanged(err) {
		t.Fatalf("mid-batch bump error not retryable-typed: %v", err)
	}
	// The caller retries exactly as the error invites — refresh the
	// map, rerun the whole batch — and converges.
	if _, err := r.Refresh(context.Background()); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if err := r.PutBatch(context.Background(), keys, vals); err != nil {
		t.Fatalf("manual retry after typed error: %v", err)
	}
	checkConverged(t, store, m, keys)
}

func TestRouterReplanExhaustion(t *testing.T) {
	store := newEpochStore(1)
	m := testMap(1, 2)
	store.afterApply = func(s *epochStore) { s.bump() } // moves EVERY time: never converges
	r := NewRouter(store, func(ctx context.Context) (*Map, error) {
		cur := m.Clone()
		cur.Epoch = store.currentEpoch()
		return cur, nil
	})
	r.MaxRetries = 3
	r.RetryBackoff = 0

	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	vals := make([][]byte, len(keys))
	for i := range vals {
		vals[i] = []byte("v")
	}
	err := r.PutBatch(context.Background(), keys, vals)
	if err == nil {
		t.Fatal("perpetually-moving map: want exhaustion error, got nil")
	}
	if !errors.Is(err, ErrEpochChanged) {
		t.Fatalf("exhaustion error not typed: %v", err)
	}
}

// mistyped answers every operation with a reply of the wrong type.
type mistyped struct{}

func (mistyped) Invoke(_ context.Context, _ NodeID, _, op string, _ any) (any, error) {
	if op == sbdms.KVLen.Name {
		return "three", nil
	}
	return []byte("not a key list"), nil
}

// TestRouterRejectsMistypedReplies: a reply of the wrong type is an
// error, never "0 keys" or an empty result.
func TestRouterRejectsMistypedReplies(t *testing.T) {
	r := NewRouter(mistyped{}, func(context.Context) (*Map, error) { return testMap(1, 2), nil })
	ctx := context.Background()
	if n, err := r.Len(ctx); err == nil {
		t.Errorf("Len over a string reply = %d, nil; want an error", n)
	}
	if keys, err := r.ScanKeysSnapshot(ctx, "", 10); err == nil {
		t.Errorf("ScanKeysSnapshot over a []byte reply = %v, nil; want an error", keys)
	}
	if err := r.Put(ctx, "k", []byte("v")); err == nil {
		t.Error("Put over a []byte reply = nil; want an error")
	}
}
