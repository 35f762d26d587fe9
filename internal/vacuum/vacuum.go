// Package vacuum reclaims dead MVCC versions from a version-chained
// key-value heap.
//
// Writers never remove anything: an update links a new version in
// front of the old one and a delete links a tombstone, so chains grow
// until something prunes them. The vacuum is that something — a
// cooperative scavenger that walks the index, finds versions no
// current or future snapshot can ever resolve to, and frees their heap
// slots.
//
// # Safety argument
//
// The oracle's Horizon() is a timestamp at or below the read timestamp
// of every registered snapshot, and below the timestamp any FUTURE
// snapshot can receive (the visibility frontier only advances). A
// reader at readTS >= horizon resolves a chain to its newest version
// with begin <= readTS. Therefore, within one chain, the newest
// version at or below the horizon — the pivot — is the oldest version
// any reader can still resolve to; everything linked behind it is
// unreachable and reclaimable. Two refinements:
//
//   - If the pivot itself is a tombstone (and not the chain head), the
//     pivot is reclaimable too: a reader resolving to it concludes
//     "absent", and a reader that walks past a severed chain end
//     concludes exactly the same.
//   - If the chain HEAD is a committed tombstone at or below the
//     horizon, every possible reader concludes "absent" — the whole
//     key is dead: its ghost index entry and every slot in its chain
//     go.
//
// # Interaction with the lock protocol
//
// The vacuum takes each key's exclusive lock, conditionally
// (TryAcquire), before touching its chain, and skips keys it cannot
// lock. That excludes writers (which hold the X lock while their
// version is uncommitted) and point reads (which hold an S lock while
// they read the head). Under the X lock every version in the chain is
// committed, so the pivot computation is stable. Snapshot readers —
// every scan among them — take no locks at all: they may race a
// reclamation and land on a freed slot, which the KV layer's bounded
// retry handles (the safety argument above guarantees the version they
// were after was unreachable anyway).
//
// Removing a whole-key ghost changes no visible key space: the ghost
// is invisible to every read path, so deleting its index entry is safe
// under the key's X lock alone.
//
// # Crash safety
//
// Each key's reclamation is one transaction: sever the chain (stamp
// the pivot's prev pointer to nil) and then delete the tail slots, or
// delete the index entry and then every slot. All mutations carry
// logical undo that restores exact (page, slot) cells, so an abort or
// a crash mid-transaction rebuilds the chain bit-for-bit; a crash
// after the lazy commit record is durable replays the reclamation.
// Either way no live version is lost and no dead slot leaks.
package vacuum

import (
	"errors"
	"fmt"

	"repro/internal/access"
	"repro/internal/index"
	"repro/internal/txn"
)

// maxChain bounds a version-chain walk; a longer chain means a cycle
// (corruption), not a workload.
const maxChain = 1 << 20

// Config wires a vacuum to one keyspace's storage structures.
type Config struct {
	Heap  *access.HeapFile
	Index *index.BTree
	// Txns runs each key's reclamation as a WAL-logged transaction. Its
	// lock manager holds the per-key X locks — under ids reserved from
	// it, owned by the vacuum pass rather than the reclamation
	// transaction and released only after that transaction's outcome
	// settles — and its oracle supplies the horizon.
	Txns *txn.Manager
	// Resource maps an index key to its lock-manager resource name —
	// it must agree exactly with the naming the writers use.
	Resource func(key []byte) (string, error)
	// ScanFrom is the lowest index key of the keyspace.
	ScanFrom []byte
	// OnKeyRemoved, if set, is called once per whole-key removal,
	// after the removal committed (the KV layer keeps a ghost counter
	// for O(1) Len and must see every ghost leave the index).
	OnKeyRemoved func()
}

func (c Config) validate() error {
	switch {
	case c.Heap == nil:
		return errors.New("vacuum: nil heap")
	case c.Index == nil:
		return errors.New("vacuum: nil index")
	case c.Txns == nil:
		return errors.New("vacuum: nil transaction manager")
	case c.Resource == nil:
		return errors.New("vacuum: nil resource mapping")
	}
	return nil
}

// Stats reports what one pass did.
type Stats struct {
	Horizon    uint64 // reclamation horizon of the pass
	Keys       int    // index entries examined
	Candidates int    // entries whose chains might hold dead versions
	// SkippedBusy counts candidates whose key lock was held (a writer
	// or a point read was active); they stay for a later pass.
	SkippedBusy int
	// SkippedUncommitted counts chains where an uncommitted version
	// surfaced despite the X lock. That indicates a protocol violation
	// somewhere; the vacuum leaves such chains strictly alone.
	SkippedUncommitted int
	KeysRemoved        int // whole keys (ghost entry + full chain) removed
	VersionsReclaimed  int // heap slots freed, including removed keys'
}

type version struct {
	rid  access.RID
	meta access.VersionMeta
}

// Run executes one vacuum pass: pin the horizon, sweep the index for
// candidate chains, and reclaim each candidate under its key lock.
// Keys whose locks are busy are skipped, not waited for — the vacuum
// must never sit in a writer's way.
func Run(c Config) (Stats, error) {
	var st Stats
	if err := c.validate(); err != nil {
		return st, err
	}
	st.Horizon = c.Txns.Oracle().Horizon()

	// Sweep: collect candidate keys. The pre-filter reads only the
	// chain head, without any lock — a stale verdict is fine, because
	// the authoritative re-read happens under the key's X lock. A head
	// that is committed, live and chainless has nothing to reclaim; a
	// concurrently-freed head (ErrNoSlot) means another actor already
	// handled the key.
	type candidate struct {
		key []byte
		res string
	}
	var cands []candidate
	err := c.Index.Range(c.ScanFrom, nil, func(key []byte, rid access.RID) error {
		st.Keys++
		cell, err := c.Heap.Get(rid)
		if err != nil {
			if errors.Is(err, access.ErrNoSlot) {
				return nil
			}
			return err
		}
		m, _, err := access.DecodeVersion(cell)
		if err != nil {
			return fmt.Errorf("vacuum: head of chain at %v: %w", rid, err)
		}
		dead := m.Committed() && m.Tombstone() && m.Begin <= st.Horizon
		if !m.HasPrev() && !dead {
			return nil
		}
		res, err := c.Resource(key)
		if err != nil {
			return err
		}
		cands = append(cands, candidate{append([]byte(nil), key...), res})
		return nil
	})
	if err != nil {
		return st, err
	}
	st.Candidates = len(cands)

	for _, cd := range cands {
		if err := c.vacuumKey(cd.key, cd.res, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// vacuumKey reclaims one key's dead versions under its exclusive lock.
func (c Config) vacuumKey(key []byte, res string, st *Stats) error {
	locks := c.Txns.Locks()
	owner := c.Txns.ReserveID()
	if !locks.TryAcquire(owner, res, txn.Exclusive) {
		st.SkippedBusy++
		return nil
	}
	defer locks.ReleaseAll(owner)

	// Re-read under the lock: the chain is now stable (writers need
	// this X lock) and fully committed.
	rids, err := c.Index.Search(key)
	if err != nil {
		return err
	}
	if len(rids) == 0 {
		return nil // key vanished between sweep and lock
	}
	var chain []version
	rid := rids[0]
	for {
		cell, err := c.Heap.Get(rid)
		if err != nil {
			return fmt.Errorf("vacuum: chain read at %v: %w", rid, err)
		}
		m, _, err := access.DecodeVersion(cell)
		if err != nil {
			return fmt.Errorf("vacuum: chain decode at %v: %w", rid, err)
		}
		if !m.Committed() {
			st.SkippedUncommitted++
			return nil
		}
		chain = append(chain, version{rid, m})
		if !m.HasPrev() {
			break
		}
		if len(chain) >= maxChain {
			return fmt.Errorf("vacuum: version chain from %v exceeds %d links", rids[0], maxChain)
		}
		rid = m.Prev
	}

	// The pivot is the newest version at or below the horizon: the
	// oldest version any live or future reader can resolve to.
	pivot := -1
	for i, v := range chain {
		if v.meta.Begin <= st.Horizon {
			pivot = i
			break
		}
	}
	if pivot < 0 {
		return nil // whole chain above the horizon; all reachable
	}
	if pivot == 0 && chain[0].meta.Tombstone() {
		// Committed tombstone head at or below the horizon: every
		// reader answers "absent". The whole key goes.
		if err := c.removeKey(key, chain, st); err != nil {
			return err
		}
		return nil
	}
	keep := pivot
	if chain[pivot].meta.Tombstone() {
		// A non-head tombstone pivot is itself unreachable-in-effect:
		// resolving to it and walking past a severed chain end both
		// answer "absent".
		keep = pivot - 1
	}
	if keep == len(chain)-1 {
		return nil // no tail behind the keeper
	}
	return c.truncate(chain, keep, st)
}

// finish settles one key's reclamation transaction: abort on a failed
// step, lazy commit otherwise.
func (c Config) finish(tx *txn.Txn, opErr error) error {
	if opErr != nil {
		if aerr := c.Txns.Abort(tx); aerr != nil {
			return fmt.Errorf("%w (abort: %v)", opErr, aerr)
		}
		return opErr
	}
	// Lazy commit: the reclamation needs no immediate durability — if
	// the commit record is lost to a crash, recovery rolls the
	// transaction back and a later pass redoes the work.
	return c.Txns.CommitLazy(tx)
}

// removeKey deletes a dead key: its index entry and every chain slot,
// in one transaction. Index entry first — from that moment scans skip
// the key, which is exactly the answer its tombstone head already
// dictated.
func (c Config) removeKey(key []byte, chain []version, st *Stats) error {
	tx, err := c.Txns.Begin()
	if err != nil {
		return err
	}
	err = func() error {
		ok, err := c.Index.DeleteTx(tx, key, chain[0].rid)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("vacuum: index entry for %q vanished under its exclusive lock", key)
		}
		for _, v := range chain {
			if err := c.Heap.Delete(tx, v.rid); err != nil {
				return err
			}
		}
		return nil
	}()
	if err := c.finish(tx, err); err != nil {
		return err
	}
	st.KeysRemoved++
	st.VersionsReclaimed += len(chain)
	if c.OnKeyRemoved != nil {
		c.OnKeyRemoved()
	}
	return nil
}

// truncate severs the chain after chain[keep] and frees the tail, in
// one transaction. Sever first: once the keeper's prev pointer is nil,
// no reader can walk into a slot this transaction is about to free,
// and recovery's redo repeats the same order.
func (c Config) truncate(chain []version, keep int, st *Stats) error {
	tx, err := c.Txns.Begin()
	if err != nil {
		return err
	}
	err = func() error {
		none := access.EncodePrevRID(access.RID{})
		if err := c.Heap.StampBytes(tx, chain[keep].rid, access.VersionPrevOff, none); err != nil {
			return err
		}
		for _, v := range chain[keep+1:] {
			if err := c.Heap.Delete(tx, v.rid); err != nil {
				return err
			}
		}
		return nil
	}()
	if err := c.finish(tx, err); err != nil {
		return err
	}
	st.VersionsReclaimed += len(chain) - keep - 1
	return nil
}
