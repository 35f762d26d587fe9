// Golden package for the walbeforemutate analyzer: stores into bytes
// of a frame pinned in the same function must flow through a logged
// helper, never raw slice stores.
package walbeforemutate

import (
	"encoding/binary"

	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/wal"
)

// rawStores: every direct mutation form the analyzer recognises.
func rawStores(pool *buffer.Manager, id storage.PageID) error {
	f, err := pool.Pin(id)
	if err != nil {
		return err
	}
	f.Data[0] = 1                                 // want `raw store into pinned page bytes bypasses the WAL`
	copy(f.Data[8:], []byte("x"))                 // want `raw store into pinned page bytes bypasses the WAL`
	binary.LittleEndian.PutUint64(f.Data[16:], 7) // want `raw store into pinned page bytes bypasses the WAL`
	return pool.Unpin(f.ID, true)
}

// derivedStores: the destination is tracked through aliases of the
// pinned frame's bytes (b := f.Data, p := f.Page()).
func derivedStores(pool *buffer.Manager, id storage.PageID) error {
	f, err := pool.Pin(id)
	if err != nil {
		return err
	}
	b := f.Data
	b[0] = 2 // want `raw store into pinned page bytes bypasses the WAL`
	p := f.Page()
	p.Payload()[0] = 3 // want `raw store into pinned page bytes bypasses the WAL`
	return pool.Unpin(f.ID, true)
}

// calleeSide: a function handed a *storage.Page is the callee side of
// the logged-mutation protocol — the helper logs around it.
func calleeSide(p *storage.Page) {
	p.Payload()[0] = 1
	binary.LittleEndian.PutUint16(p.Data, 2)
}

// loggedHelper: mutations through UpdatePage's callback are the
// sanctioned path.
func loggedHelper(pool *buffer.Manager, id storage.PageID) error {
	return pool.UpdatePage(id, func(p *storage.Page) error {
		p.Payload()[0] = 9
		return nil
	})
}

// readsAreFine: reading pinned bytes is not a mutation.
func readsAreFine(pool *buffer.Manager, id storage.PageID) (byte, error) {
	f, err := pool.Pin(id)
	if err != nil {
		return 0, err
	}
	v := f.Data[0]
	snapshot := make([]byte, len(f.Data))
	copy(snapshot, f.Data) // copying OUT of the page is a read
	if uerr := pool.Unpin(f.ID, false); uerr != nil {
		return 0, uerr
	}
	return v, nil
}

// suppressedRestore: an undo path restoring the exact before image is
// the WAL discipline, not a bypass — the suppression is honoured.
func suppressedRestore(pool *buffer.Manager, id storage.PageID, before []byte) error {
	f, err := pool.Pin(id)
	if err != nil {
		return err
	}
	//lint:ignore walbeforemutate restoring the exact before image after a failed append is the WAL discipline, not a bypass of it
	copy(f.Data, before)
	return pool.Unpin(f.ID, true)
}

// replayRecord: applying a log record to a pinned frame through
// wal.Record.Redo or UndoPhysical is the sanctioned replay path — the
// record is the log entry, so the store is logged by construction and
// needs no suppression. The same bytes copied by hand are a raw store.
func replayRecord(pool *buffer.Manager, rec *wal.Record) error {
	f, err := pool.PinLatched(rec.PageID, true)
	if err != nil {
		return err
	}
	p := f.Page()
	rec.Redo(p)
	rec.UndoPhysical(p)
	copy(p.Data[rec.Offset:], rec.After) // want `raw store into pinned page bytes bypasses the WAL`
	return pool.UnpinLatched(rec.PageID, true, true)
}
