// Golden package for the latchorder analyzer: no blocking
// LockManager.Acquire or Txn.Lock while a page latch is held;
// TryAcquire is the only legal lock call under a latch.
package latchorder

import (
	"context"

	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/txn"
)

// blocksUnderLatch: a blocking lock wait between PinLatched and
// UnpinLatched can stall every reader of the page.
func blocksUnderLatch(ctx context.Context, pool *buffer.Manager, lm *txn.LockManager, id storage.PageID) error {
	f, err := pool.PinLatched(id, true)
	if err != nil {
		return err
	}
	_ = f.Data
	if err := lm.Acquire(ctx, 1, "r", txn.Shared); err != nil { // want `blocking LockManager\.Acquire while a page latch may be held`
		return err
	}
	return pool.UnpinLatched(id, true, true)
}

// txnLockUnderLatch: Txn.Lock parks on the same lock manager.
func txnLockUnderLatch(ctx context.Context, pool *buffer.Manager, tx *txn.Txn, id storage.PageID) error {
	if _, err := pool.PinLatched(id, false); err != nil {
		return err
	}
	lerr := tx.Lock(ctx, "k", txn.Exclusive) // want `blocking Txn\.Lock while a page latch may be held`
	if uerr := pool.UnpinLatched(id, false, false); uerr != nil {
		return uerr
	}
	return lerr
}

// tryUnderLatch: the conditional attempt is the legal form under a
// latch.
func tryUnderLatch(pool *buffer.Manager, lm *txn.LockManager, id storage.PageID) (bool, error) {
	if _, err := pool.PinLatched(id, false); err != nil {
		return false, err
	}
	got := lm.TryAcquire(1, "r", txn.Shared)
	return got, pool.UnpinLatched(id, false, false)
}

// releasesFirst: blocking is fine once the latch is gone.
func releasesFirst(ctx context.Context, pool *buffer.Manager, lm *txn.LockManager, id storage.PageID) error {
	if _, err := pool.PinLatched(id, false); err != nil {
		return err
	}
	if err := pool.UnpinLatched(id, false, false); err != nil {
		return err
	}
	return lm.Acquire(ctx, 1, "r", txn.Shared)
}

// suppressedBlock: a justified suppression is honoured.
func suppressedBlock(ctx context.Context, pool *buffer.Manager, lm *txn.LockManager, id storage.PageID) error {
	if _, err := pool.PinLatched(id, false); err != nil {
		return err
	}
	//lint:ignore latchorder single-frame pool in this test harness: no other reader can exist to stall
	err := lm.Acquire(ctx, 1, "r", txn.Shared)
	if uerr := pool.UnpinLatched(id, false, false); uerr != nil {
		return uerr
	}
	return err
}
