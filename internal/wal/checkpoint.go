package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/storage"
)

// CkptTxn is one active-transaction-table entry of a fuzzy checkpoint:
// a transaction that had logged an update, and neither a commit nor an
// abort record, when the checkpoint began. A transaction that logged
// nothing has no entry.
type CkptTxn struct {
	ID    uint64
	First LSN // the transaction's first update record
	Last  LSN // its most recent update record at snapshot time
}

// CkptPage is one dirty-page-table entry of a fuzzy checkpoint: a page
// resident dirty in the buffer pool, with the LSN of the first record
// that dirtied it since it was last clean (recLSN). RecLSN 0 marks a
// page dirtied outside the log (unlogged traffic); it is flushed by
// the checkpoint but does not constrain the recovery-begin LSN.
type CkptPage struct {
	Page   storage.PageID
	RecLSN LSN
}

// CheckpointData is the table snapshot a fuzzy checkpoint record
// carries: the active-transaction table, the dirty-page table, and the
// full-page-write fence (the NextLSN observed when the checkpoint
// began). Recovery does not need the tables — the recovery-begin LSN in
// the manifest already lower-bounds every record they could name — but
// they make the checkpoint self-describing for diagnostics and for
// rebuilding a lost manifest by scanning the log.
type CheckpointData struct {
	Fence LSN
	ATT   []CkptTxn
	DPT   []CkptPage
	// Clock is the commit-timestamp oracle's clock at checkpoint time.
	// It is read after the fence, so it bounds the timestamp of every
	// commit record the checkpoint licenses truncating away; recovery
	// restores the oracle at or above it.
	Clock uint64
}

// EncodeCheckpoint serialises the tables into a checkpoint record's
// After payload.
func EncodeCheckpoint(d CheckpointData) []byte {
	out := make([]byte, 0, 8+4+4+len(d.ATT)*24+len(d.DPT)*16)
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(d.Fence))
	out = append(out, tmp[:]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(d.ATT)))
	out = append(out, tmp[:4]...)
	for _, t := range d.ATT {
		binary.LittleEndian.PutUint64(tmp[:], t.ID)
		out = append(out, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], uint64(t.First))
		out = append(out, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], uint64(t.Last))
		out = append(out, tmp[:]...)
	}
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(d.DPT)))
	out = append(out, tmp[:4]...)
	for _, p := range d.DPT {
		binary.LittleEndian.PutUint64(tmp[:], uint64(p.Page))
		out = append(out, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], uint64(p.RecLSN))
		out = append(out, tmp[:]...)
	}
	binary.LittleEndian.PutUint64(tmp[:], d.Clock)
	out = append(out, tmp[:]...)
	return out
}

// DecodeCheckpoint parses a checkpoint record's After payload. An empty
// payload (the quiescent Log.Checkpoint convenience path) decodes to
// empty tables.
func DecodeCheckpoint(buf []byte) (CheckpointData, error) {
	var d CheckpointData
	if len(buf) == 0 {
		return d, nil
	}
	if len(buf) < 16 {
		return d, fmt.Errorf("%w: short checkpoint payload", ErrCorrupt)
	}
	d.Fence = LSN(binary.LittleEndian.Uint64(buf))
	buf = buf[8:]
	natt := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	if uint64(len(buf)) < uint64(natt)*24+4 {
		return d, fmt.Errorf("%w: truncated checkpoint ATT", ErrCorrupt)
	}
	for i := uint32(0); i < natt; i++ {
		d.ATT = append(d.ATT, CkptTxn{
			ID:    binary.LittleEndian.Uint64(buf),
			First: LSN(binary.LittleEndian.Uint64(buf[8:])),
			Last:  LSN(binary.LittleEndian.Uint64(buf[16:])),
		})
		buf = buf[24:]
	}
	ndpt := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	if uint64(len(buf)) < uint64(ndpt)*16 {
		return d, fmt.Errorf("%w: truncated checkpoint DPT", ErrCorrupt)
	}
	for i := uint32(0); i < ndpt; i++ {
		d.DPT = append(d.DPT, CkptPage{
			Page:   storage.PageID(binary.LittleEndian.Uint64(buf)),
			RecLSN: LSN(binary.LittleEndian.Uint64(buf[8:])),
		})
		buf = buf[16:]
	}
	// Clock trails the tables; records written before it existed simply
	// omit it and decode to zero.
	if len(buf) >= 8 {
		d.Clock = binary.LittleEndian.Uint64(buf)
	}
	return d, nil
}
