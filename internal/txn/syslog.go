package txn

import (
	"repro/internal/storage"
	"repro/internal/wal"
)

// PageLogger exposes the manager as a storage.PageLogger, so the file
// manager can WAL-log directory, page-allocation and free-list
// mutations under system transactions.
func (m *Manager) PageLogger() storage.PageLogger { return sysLogger{m} }

type sysLogger struct{ m *Manager }

// Begin implements storage.PageLogger.
func (s sysLogger) Begin() (storage.PageTxn, error) {
	t, err := s.m.Begin()
	if err != nil {
		return nil, err
	}
	return &pageTxn{m: s.m, t: t}, nil
}

// Flush implements storage.PageLogger: it forces everything appended so
// far (the file manager calls it before returning freed pages to the
// allocator). No group window: the caller holds the file-manager lock,
// and commit-batching latency must not stall page traffic.
func (s sysLogger) Flush() error {
	return s.m.log.FlushNoWindow(s.m.log.NextLSN())
}

// pageTxn adapts a Txn to storage.PageTxn.
type pageTxn struct {
	m *Manager
	t *Txn
}

// Update implements storage.PageTxn: the page transition is appended
// through the WAL's fence-checked path, which picks a minimal diff or —
// for the page's first mutation after a checkpoint — a full page image.
func (p *pageTxn) Update(id storage.PageID, before, after []byte) (uint64, bool, error) {
	return p.update(id, before, after, nil)
}

// UpdateRedoOnly implements storage.PageTxn: the record carries the
// redo-only marker, so neither rollback nor crash recovery of an
// in-flight system transaction ever restores its before image (which
// could wipe records concurrent transactions interleaved on the page
// after the latch was released).
func (p *pageTxn) UpdateRedoOnly(id storage.PageID, before, after []byte) (uint64, bool, error) {
	return p.update(id, before, after, wal.UndoNone)
}

func (p *pageTxn) update(id storage.PageID, before, after, undo []byte) (uint64, bool, error) {
	rec, err := p.m.log.AppendPageUpdate(p.t.ID(), p.t.LastLSN(), id, before, after, undo)
	if err != nil {
		return 0, false, err
	}
	if rec == nil {
		return 0, false, nil
	}
	p.t.Record(rec)
	return uint64(rec.LSN), true, nil
}

// Commit implements storage.PageTxn (lazy: no log force).
func (p *pageTxn) Commit() error { return p.m.CommitLazy(p.t) }

// Abort implements storage.PageTxn.
func (p *pageTxn) Abort() error { return p.m.Abort(p.t) }
