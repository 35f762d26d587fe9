// Package wal implements a write-ahead log for the SBDMS storage layer:
// length-prefixed, checksummed records appended to numbered log
// segments, with group-buffered appends, explicit flush, iteration, and
// redo/undo recovery over a storage.PageStore. The log address space
// (LSNs) is global and monotonic across segments; a manifest carries
// the last fuzzy checkpoint, the recovery-begin LSN, and the full-page-
// write fence, so segments wholly below the recovery-begin LSN can be
// deleted without losing the ability to rebuild torn pages.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/storage"
)

// WAL errors.
var (
	// ErrCorrupt is returned when a log record fails its checksum or
	// framing; iteration stops at the last valid record.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrTornTail indicates a partially written record at the log tail
	// (normal after a crash; recovery treats it as the end of log).
	ErrTornTail = errors.New("wal: torn tail")
)

// LSN is a log sequence number: the byte address of a record in the
// global log stream. Addresses are never reused; segment files map a
// contiguous LSN range onto a file each, so truncating old segments
// does not move surviving records.
type LSN uint64

// ZeroLSN is the null LSN (no record).
const ZeroLSN LSN = 0

// RecType classifies log records.
type RecType uint8

// Log record types.
const (
	RecBegin      RecType = 1
	RecCommit     RecType = 2
	RecAbort      RecType = 3
	RecUpdate     RecType = 4
	RecCheckpoint RecType = 5
)

// String implements fmt.Stringer.
func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "begin"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecUpdate:
		return "update"
	case RecCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("rectype(%d)", uint8(t))
	}
}

// Run is one contiguous byte range of a page that an update record
// changes: Len bytes starting at page offset Off.
type Run struct {
	Off, Len uint16
}

// Record is one log record. An update record carries the bytes of a
// page that changed as an ordered list of runs: After holds the new
// bytes of every run back to back, Runs says where each stretch goes.
// Commit and checkpoint records have no runs and use After as their
// payload (commit timestamp, encoded checkpoint tables).
type Record struct {
	LSN    LSN // assigned by Append
	Txn    uint64
	Type   RecType
	PageID storage.PageID
	// Offset is the page offset of the first run. A record with nil Runs
	// and a non-empty After is the one-run record (Offset, len(After)) —
	// the shape of a full-page image and of hand-built records.
	Offset uint16
	// Before holds the old bytes of every run, laid out like After. It
	// is present iff Undo is empty: only a physically undoable record
	// is ever rolled back from its before bytes, so a record with a
	// logical descriptor or the redo-only marker carries none.
	Before  []byte
	After   []byte
	Runs    []Run
	PrevLSN LSN // previous record of the same transaction
	// Undo is an opaque logical-undo descriptor attached by the access
	// layer. Empty means the record is physically undoable (restore the
	// before bytes); UndoNone marks a redo-only record (a compensation
	// logged while rolling a logical operation back); anything else
	// names the inverse operation (delete the inserted key, re-insert
	// the deleted record, ...) that the access methods execute to undo
	// it. Logical undo is what makes rollback safe once transactions
	// interleave on shared pages: restoring stale before bytes would
	// wipe the bytes concurrent committed transactions wrote next to
	// ours, while re-running the inverse operation under page latches
	// touches exactly the entry being undone.
	Undo []byte
	// End is the LSN one past this record. It is set when the record is
	// read back via Iterate (not persisted); log shippers use it as
	// their resume watermark.
	End LSN
}

// runs returns the record's run table, spelling out the implicit single
// run of a record built from Offset and After alone.
func (r *Record) runs() []Run {
	if r.Runs != nil || len(r.After) == 0 || r.Type != RecUpdate {
		return r.Runs
	}
	return []Run{{Off: r.Offset, Len: uint16(len(r.After))}}
}

// Redo applies the record to a page image — every run's after bytes at
// its offset — and stamps the page with the record's LSN. It is the one
// place redo touches page bytes: crash recovery, the log-shipping
// replica and the follower read path all replay through it.
func (r *Record) Redo(p *storage.Page) {
	r.apply(p, r.After)
}

// UndoPhysical restores the before bytes of every run and stamps the
// page with the record's LSN. Only records with an empty Undo carry
// before bytes; on any other record it changes nothing but the LSN.
func (r *Record) UndoPhysical(p *storage.Page) {
	r.apply(p, r.Before)
}

func (r *Record) apply(p *storage.Page, image []byte) {
	for _, run := range r.runs() {
		if len(image) < int(run.Len) {
			break
		}
		copy(p.Data[run.Off:], image[:run.Len])
		image = image[run.Len:]
	}
	p.SetLSN(uint64(r.LSN))
}

// check reports whether the record can be encoded into something
// readRecord accepts: runs inside the page that add up to After, and
// before bytes — if any — of the same length.
func (r *Record) check() error {
	total := 0
	for _, run := range r.runs() {
		if int(run.Off)+int(run.Len) > storage.PageSize {
			return fmt.Errorf("wal: run [%d,+%d) leaves the page", run.Off, run.Len)
		}
		total += int(run.Len)
	}
	if r.Type == RecUpdate && total != len(r.After) {
		return fmt.Errorf("wal: runs cover %d bytes, After holds %d", total, len(r.After))
	}
	if len(r.Before) != 0 && len(r.Before) != len(r.After) {
		return fmt.Errorf("wal: %d before bytes beside %d after bytes", len(r.Before), len(r.After))
	}
	return nil
}

// UndoNone is the redo-only undo descriptor: the record is never
// undone, neither physically nor logically (compensation records).
var UndoNone = []byte{0}

// RedoOnly reports whether the record carries the redo-only marker.
func (r *Record) RedoOnly() bool {
	return len(r.Undo) == 1 && r.Undo[0] == 0
}

// LogicalUndo reports whether the record carries a logical-undo
// descriptor (as opposed to physical before-image undo or redo-only).
func (r *Record) LogicalUndo() bool {
	return len(r.Undo) > 0 && !r.RedoOnly()
}

// DefaultSegmentBytes is the roll threshold used when OpenDir is given
// a non-positive segment size. Segments are the unit of checkpoint
// truncation, of shipper retention and of a follower's bootstrap copy;
// at the ~650 bytes a small write logs, 1 MiB is some 1,500 of them.
const DefaultSegmentBytes = 1 << 20

// minSegmentBytes floors configured segment sizes so a single full
// page image always fits comfortably in one segment.
const minSegmentBytes = 2 * storage.PageSize

// segment is one live log segment: a contiguous LSN range mapped onto
// one device. Records at LSN x live at device offset
// segHeaderSize + (x - base).
type segment struct {
	seq  uint64
	base LSN
	end  LSN // durable end; for the active segment this tracks flushed
	dev  storage.Device
}

func (s *segment) devOff(lsn LSN) int64 {
	return int64(segHeaderSize) + int64(lsn-s.base)
}

// Log is an append-only write-ahead log over a SegmentDir. Appends are
// buffered in memory; Flush persists them. Safe for concurrent use.
//
// Flush uses group commit: concurrent callers coalesce onto a single
// leader that performs one device sync covering every LSN requested so
// far, while followers wait for the covering sync instead of issuing
// their own. The leader syncs as soon as it takes the round: the
// batching comes from committers that arrive while its sync is in
// flight, never from a deliberate delay.
type Log struct {
	mu           sync.Mutex
	dir          SegmentDir
	manifestDev  storage.Device
	segs         []*segment // ascending by base; last is active
	segmentBytes int        // roll threshold in record bytes

	buf      []byte // pending bytes not yet written
	bufStart uint64 // LSN of buf[0]
	flushed  LSN    // durability boundary (first LSN not yet durable)
	nextLSN  LSN

	checkpoint    LSN // LSN of the last completed checkpoint record
	recoveryBegin LSN // where the next recovery scan starts
	fence         LSN // full-page-write fence (page LSN below it => log a full image)

	// open is the active-transaction table: every transaction with an
	// update record in the log and no commit or abort record yet, with
	// its first and latest LSN. Kept under the mutex that assigns LSNs,
	// so BeginCheckpoint reads a table exactly consistent with its
	// fence; a transaction that logged nothing is never in it.
	open map[uint64]CkptTxn

	// Group commit state.
	flushDone *sync.Cond // broadcast when a flush round completes
	syncing   bool       // a leader is writing/syncing off-lock
	syncs     uint64     // device syncs issued by Flush
	rolls     uint64     // segment rollovers performed
	rollFails uint64     // rollover attempts that failed (retried)

	// retainFn, when set, reports the minimum LSN an external consumer
	// (a replication shipper) still needs; checkpoint truncation keeps
	// every segment at or above it even when the recovery-begin LSN has
	// moved past, so slow replicas resume instead of hitting
	// ErrSegmentGone and restarting from a full copy.
	retainFn      func() LSN
	retainedHolds uint64 // segments kept alive only by the retention hook

	// appendObs, when set, sees every record at append time (before it
	// is durable); the hook behind log shipping and async commit. See
	// SetAppendObserver.
	appendObs func(*Record)
}

// OpenDir opens (or initialises) a segmented log over a SegmentDir,
// scanning the newest segment to find the durable tail (torn tail
// records are truncated away). segmentBytes sets the roll threshold;
// <= 0 selects DefaultSegmentBytes.
func OpenDir(dir SegmentDir, segmentBytes int) (*Log, error) {
	l := &Log{dir: dir, segmentBytes: segmentBytes, open: make(map[uint64]CkptTxn)}
	if l.segmentBytes <= 0 {
		l.segmentBytes = DefaultSegmentBytes
	} else if l.segmentBytes < minSegmentBytes {
		l.segmentBytes = minSegmentBytes
	}

	mdev, err := dir.OpenManifest()
	if err != nil {
		return nil, err
	}
	l.manifestDev = mdev
	msize, err := mdev.Size()
	if err != nil {
		return nil, err
	}
	mbuf := make([]byte, manifestSize)
	haveManifest := false
	manifestTorn := false
	if msize > 0 {
		n := msize
		if n > manifestSize {
			n = manifestSize
		}
		if _, err := mdev.ReadAt(mbuf[:n], 0); err != nil {
			return nil, fmt.Errorf("wal: reading manifest: %w", err)
		}
		allZero := true
		for _, b := range mbuf[:n] {
			if b != 0 {
				allZero = false
				break
			}
		}
		switch {
		case allZero:
			// The manifest region exists but was never written: a crash
			// landed between creating the first segment and the first
			// manifest write. No record can have been acknowledged before
			// the first manifest sync, so treat it as absent, not foreign.
		case n >= 8 && binary.LittleEndian.Uint64(mbuf) != manifestMagic:
			// A wrong magic is a foreign or mispointed file, not a torn
			// manifest write: fail loudly instead of "recovering" over
			// someone else's data.
			return nil, fmt.Errorf("%w: bad manifest magic", ErrCorrupt)
		default:
			m, ok, err := decodeManifest(mbuf[:n])
			if err != nil {
				return nil, err
			}
			if ok && n == manifestSize {
				l.checkpoint = m.checkpoint
				l.recoveryBegin = m.recoveryBegin
				l.fence = m.fence
				haveManifest = true
			} else {
				manifestTorn = true
			}
		}
	}

	if err := l.openSegments(); err != nil {
		return nil, err
	}
	if !haveManifest {
		// No usable manifest: fall back to scanning from the oldest
		// live segment. Only a genuinely empty log (no records, no
		// prior truncation) is treated as fresh; any existing history
		// without a manifest — torn write, zeroed block — forces the
		// fence to the tail so every page's next mutation logs a full
		// image: self-healing torn-page protection while the
		// checkpoint provenance is unknown.
		l.recoveryBegin = ZeroLSN
		l.checkpoint = ZeroLSN
		empty := l.segs[0].seq == 1 && l.nextLSN == l.segs[0].base
		if manifestTorn || !empty {
			l.fence = l.nextLSN
		} else {
			l.fence = 1
			if err := l.writeManifestLocked(); err != nil {
				return nil, err
			}
		}
	}
	if l.fence == ZeroLSN {
		l.fence = 1
	}
	l.flushDone = sync.NewCond(&l.mu)
	return l, nil
}

// openSegments loads every live segment, validates header continuity,
// and truncates the torn tail of the newest one. A newest segment whose
// header never became durable (crash during rollover, before anything
// in it was acknowledged) is deleted.
func (l *Log) openSegments() error {
	seqs, err := l.dir.ListSegments()
	if err != nil {
		return err
	}
	if len(seqs) == 0 {
		seg, err := l.createSegment(1, LSN(segHeaderSize))
		if err != nil {
			return err
		}
		l.segs = []*segment{seg}
		l.flushed = seg.base
		l.nextLSN = seg.base
		l.bufStart = uint64(seg.base)
		return nil
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			return fmt.Errorf("%w: segment gap %d -> %d", ErrCorrupt, seqs[i-1], seqs[i])
		}
	}
	// Pass 1: open every segment and read its header.
	type rawSeg struct {
		seq      uint64
		dev      storage.Device
		size     int64
		headerOK bool
		base     LSN
	}
	raws := make([]rawSeg, 0, len(seqs))
	for _, seq := range seqs {
		dev, err := l.dir.OpenSegment(seq)
		if err != nil {
			return err
		}
		size, err := dev.Size()
		if err != nil {
			return err
		}
		r := rawSeg{seq: seq, dev: dev, size: size}
		if size >= segHeaderSize {
			hdr := make([]byte, segHeaderSize)
			if _, err := dev.ReadAt(hdr, 0); err != nil {
				return fmt.Errorf("wal: reading segment %d header: %w", seq, err)
			}
			if binary.LittleEndian.Uint64(hdr) == segMagicV1 {
				// Before anything is dropped, truncated or created.
				return fmt.Errorf("%w: segment %d", ErrFormat, seq)
			}
			hseq, base, ok := decodeSegHeader(hdr)
			r.headerOK = ok && hseq == seq
			r.base = base
		}
		raws = append(raws, r)
	}
	// The NEWEST segment may be a crash leftover that never held an
	// acknowledged record, in two shapes: a torn header (crash during
	// rollover, before the creation sync completed), or a durable
	// header whose base no longer matches the previous segment's end (a
	// rollover failed after writing the header, appends continued in
	// the previous segment, and the retry never happened before the
	// crash). Records only ever move to a new segment once its creation
	// fully succeeded, so in both shapes the leftover is empty of
	// promises and is dropped; the same damage anywhere else is real
	// corruption. A sole first segment with a torn header is the
	// crash-during-very-first-init case, droppable only while no
	// checkpoint was ever completed.
	if n := len(raws); n > 0 {
		last := raws[n-1]
		drop := false
		if !last.headerOK {
			drop = n > 1 || (l.checkpoint == ZeroLSN && l.recoveryBegin == ZeroLSN)
			if !drop {
				return fmt.Errorf("%w: segment %d has a bad header", ErrCorrupt, last.seq)
			}
		} else if n > 1 {
			prev := raws[n-2]
			if prev.headerOK && last.base != prev.base+LSN(prev.size-segHeaderSize) {
				drop = true // stale failed-rollover leftover
			}
		}
		if drop {
			if err := l.dir.RemoveSegment(last.seq); err != nil {
				return err
			}
			_ = last.dev.Close()
			raws = raws[:n-1]
		}
	}
	// Pass 2: validate chain continuity and durable extents. Only the
	// final remaining segment is tail-scanned for torn records — every
	// earlier one was fully synced before its successor was created.
	var segs []*segment
	for i, r := range raws {
		if !r.headerOK {
			return fmt.Errorf("%w: segment %d has a bad header", ErrCorrupt, r.seq)
		}
		if len(segs) > 0 {
			prev := segs[len(segs)-1]
			if r.base != prev.end {
				return fmt.Errorf("%w: segment %d base %d, want %d", ErrCorrupt, r.seq, r.base, prev.end)
			}
		}
		seg := &segment{seq: r.seq, base: r.base, dev: r.dev}
		if i == len(raws)-1 {
			end := r.base
			for {
				_, next, err := seg.readRecord(end, r.base+LSN(r.size-segHeaderSize))
				if err != nil {
					break
				}
				end = next
			}
			seg.end = end
			if err := r.dev.Truncate(seg.devOff(end)); err != nil {
				return err
			}
		} else {
			seg.end = r.base + LSN(r.size-segHeaderSize)
		}
		segs = append(segs, seg)
	}
	if len(segs) == 0 {
		// Only reachable when the sole unborn segment was dropped:
		// reinitialise from scratch, exactly like an empty directory.
		seg, err := l.createSegment(1, LSN(segHeaderSize))
		if err != nil {
			return err
		}
		segs = []*segment{seg}
	}
	l.segs = segs
	tail := segs[len(segs)-1].end
	l.flushed = tail
	l.nextLSN = tail
	l.bufStart = uint64(tail)
	return nil
}

// createSegment creates segment seq with the given base LSN, writing
// and syncing its header so the segment is valid before any record in
// it can be acknowledged. On failure the half-created file is removed
// (best effort): leaving it behind with a stale header would confuse
// the base-continuity check at the next open once the previous segment
// keeps growing.
func (l *Log) createSegment(seq uint64, base LSN) (*segment, error) {
	dev, err := l.dir.OpenSegment(seq)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*segment, error) {
		_ = dev.Close()
		_ = l.dir.RemoveSegment(seq)
		return nil, err
	}
	if _, err := dev.WriteAt(encodeSegHeader(seq, base), 0); err != nil {
		return fail(fmt.Errorf("wal: writing segment %d header: %w", seq, err))
	}
	if err := dev.Sync(); err != nil {
		return fail(err)
	}
	if err := l.dir.Sync(); err != nil {
		return fail(err)
	}
	return &segment{seq: seq, base: base, end: base, dev: dev}, nil
}

// active returns the segment receiving appends. Callers hold l.mu.
func (l *Log) active() *segment { return l.segs[len(l.segs)-1] }

// maybeRollLocked seals the active segment and opens the next one when
// the active segment's durable body has reached the roll threshold.
// Called with l.mu held, directly after a successful flush, so the
// pending buffer (if any) starts exactly at the new segment's base.
// The header write and its two syncs run under the mutex, stalling
// concurrent appends for that round — a deliberate trade: it happens
// once per segmentBytes of traffic, and keeping creation atomic with
// the segment-list swap is what makes every other path lock-simple.
func (l *Log) maybeRollLocked() error {
	act := l.active()
	if int(l.flushed-act.base) < l.segmentBytes {
		return nil
	}
	act.end = l.flushed
	seg, err := l.createSegment(act.seq+1, l.flushed)
	if err != nil {
		return fmt.Errorf("wal: rolling to segment %d: %w", act.seq+1, err)
	}
	l.segs = append(l.segs, seg)
	l.rolls++
	return nil
}

// Rolls returns how many segment rollovers the log has performed.
func (l *Log) Rolls() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rolls
}

// WindowSkips always returns 0: the log has no group-commit window
// to skip. It stays only because the bench/ module still reads it;
// stage 3-0 deletes it together with buffer.NewPolicy and the policy
// argument of buffer.New.
func (l *Log) WindowSkips() uint64 { return 0 }

// Syncs returns the number of device syncs issued by Flush so far.
// Under group commit this is typically far below the number of
// committed transactions.
func (l *Log) Syncs() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// Record wire layout, after the u32 length that frames it (the length
// covers everything that follows it):
//
//	u32 crc | u64 txn | u8 type | u8 flags | u64 page | u64 prevLSN |
//	u16 ulen | u16 nruns | nruns x (u16 off, u16 len) | undo | after | before
//
// after is the runs' new bytes back to back (for a record without runs,
// its payload); before is present, and as long as after, iff flagBefore
// is set.
const (
	recFixedSize = 4 + 8 + 1 + 1 + 8 + 8 + 2 + 2 // crc through nruns
	// minRecordSize is the smallest value a record's length field can
	// hold: a record with no runs, no undo descriptor and no bytes.
	minRecordSize = recFixedSize
	flagBefore    = 1
)

// encode appends the wire form of rec (excluding LSN assignment) to dst.
func encode(dst []byte, rec *Record) []byte {
	runs := rec.runs()
	start := len(dst)
	var hdr [4 + recFixedSize]byte
	binary.LittleEndian.PutUint64(hdr[8:], rec.Txn)
	hdr[16] = byte(rec.Type)
	if len(rec.Before) > 0 {
		hdr[17] = flagBefore
	}
	binary.LittleEndian.PutUint64(hdr[18:], uint64(rec.PageID))
	binary.LittleEndian.PutUint64(hdr[26:], uint64(rec.PrevLSN))
	binary.LittleEndian.PutUint16(hdr[34:], uint16(len(rec.Undo)))
	binary.LittleEndian.PutUint16(hdr[36:], uint16(len(runs)))
	dst = append(dst, hdr[:]...)
	for _, run := range runs {
		dst = binary.LittleEndian.AppendUint16(dst, run.Off)
		dst = binary.LittleEndian.AppendUint16(dst, run.Len)
	}
	dst = append(dst, rec.Undo...)
	dst = append(dst, rec.After...)
	dst = append(dst, rec.Before...)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(dst[start+8:], crcTable))
	return dst
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// readRecord decodes the record at LSN lsn inside the segment; limit
// bounds the readable LSN range. Returns the record and the LSN of the
// next record.
func (s *segment) readRecord(lsn, limit LSN) (*Record, LSN, error) {
	off := uint64(s.devOff(lsn))
	devLimit := uint64(s.devOff(limit))
	var lenBuf [4]byte
	if off+4 > devLimit {
		return nil, 0, ErrTornTail
	}
	if _, err := s.dev.ReadAt(lenBuf[:], int64(off)); err != nil {
		return nil, 0, s.readErr(err)
	}
	total := binary.LittleEndian.Uint32(lenBuf[:])
	if total < minRecordSize || off+4+uint64(total) > devLimit {
		return nil, 0, ErrTornTail
	}
	payload := make([]byte, total)
	if _, err := s.dev.ReadAt(payload, int64(off+4)); err != nil {
		return nil, 0, s.readErr(err)
	}
	rec, err := decode(payload)
	if err != nil {
		return nil, 0, err
	}
	rec.LSN = lsn
	rec.End = lsn + LSN(4+total)
	return rec, rec.End, nil
}

// readErr classifies a device read failure inside a segment.
func (s *segment) readErr(err error) error {
	if errors.Is(err, storage.ErrClosed) {
		// The segment was truncated away under a concurrent reader.
		return fmt.Errorf("%w: segment %d", ErrSegmentGone, s.seq)
	}
	return fmt.Errorf("%w: %v", ErrTornTail, err)
}

// decode parses one record from payload — the bytes its length field
// frames, at least minRecordSize of them. The record's Undo, After and
// Before alias payload, which the caller hands over.
func decode(payload []byte) (*Record, error) {
	body := payload[4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(payload) {
		return nil, ErrCorrupt
	}
	rec := &Record{
		Txn:     binary.LittleEndian.Uint64(body),
		Type:    RecType(body[8]),
		PageID:  storage.PageID(binary.LittleEndian.Uint64(body[10:])),
		PrevLSN: LSN(binary.LittleEndian.Uint64(body[18:])),
	}
	ulen := int(binary.LittleEndian.Uint16(body[26:]))
	nruns := int(binary.LittleEndian.Uint16(body[28:]))
	rest := body[recFixedSize-4:]
	if len(rest) < 4*nruns+ulen {
		return nil, ErrCorrupt
	}
	if nruns > 0 {
		rec.Runs = make([]Run, nruns)
		for i := range rec.Runs {
			rec.Runs[i] = Run{Off: binary.LittleEndian.Uint16(rest), Len: binary.LittleEndian.Uint16(rest[2:])}
			rest = rest[4:]
		}
		rec.Offset = rec.Runs[0].Off
	}
	if ulen > 0 {
		rec.Undo, rest = rest[:ulen:ulen], rest[ulen:]
	}
	if body[9]&flagBefore != 0 {
		half := len(rest) / 2
		rec.Before, rest = rest[half:], rest[:half:half]
	}
	if len(rest) > 0 {
		rec.After = rest
	}
	if rec.check() != nil {
		return nil, ErrCorrupt
	}
	return rec, nil
}

// Append buffers a record and returns its assigned LSN. The record is
// durable only after Flush covers the LSN. Before bytes beside an undo
// descriptor are dropped: nothing would ever read them.
func (l *Log) Append(rec *Record) (LSN, error) {
	if len(rec.Undo) > 0 {
		rec.Before = nil
	}
	if err := rec.check(); err != nil {
		return ZeroLSN, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(rec), nil
}

func (l *Log) appendLocked(rec *Record) LSN {
	lsn := l.nextLSN
	rec.LSN = lsn
	l.buf = encode(l.buf, rec)
	l.nextLSN = LSN(l.bufStart + uint64(len(l.buf)))
	switch rec.Type {
	case RecUpdate:
		t, open := l.open[rec.Txn]
		if !open {
			t = CkptTxn{ID: rec.Txn, First: lsn}
		}
		t.Last = lsn
		l.open[rec.Txn] = t
	case RecCommit, RecAbort:
		delete(l.open, rec.Txn)
	}
	if l.appendObs != nil {
		rec.End = l.nextLSN
		l.appendObs(rec)
	}
	return lsn
}

// runGap is how many equal bytes end a run: two changes closer than
// this share one run (a run costs four bytes of table), changes at
// least this far apart get a run each.
const runGap = 16

// diffRuns returns the runs over which the equally long a and b differ,
// in ascending offset order; nil when they are identical.
func diffRuns(a, b []byte) []Run {
	var runs []Run
	n := len(a)
	for i := 0; i < n; {
		for i+8 <= n && binary.LittleEndian.Uint64(a[i:]) == binary.LittleEndian.Uint64(b[i:]) {
			i += 8
		}
		for i < n && a[i] == b[i] {
			i++
		}
		if i == n {
			break
		}
		start, end := i, i+1 // end: one past the last differing byte seen
		for i++; i < n && i-end < runGap; i++ {
			if a[i] != b[i] {
				end = i + 1
			}
		}
		runs = append(runs, Run{Off: uint16(start), Len: uint16(end - start)})
	}
	return runs
}

// fill sets the record's runs and copies their bytes out of the two
// page images (the before bytes only for a physically undoable record);
// nil runs select the whole page.
func (r *Record) fill(runs []Run, before, after []byte) {
	if runs == nil {
		runs = []Run{{Off: 0, Len: storage.PageSize}}
	}
	total := 0
	for _, run := range runs {
		total += int(run.Len)
	}
	gather := func(image []byte) []byte {
		out := make([]byte, 0, total)
		for _, run := range runs {
			out = append(out, image[run.Off:int(run.Off)+int(run.Len)]...)
		}
		return out
	}
	r.Runs, r.Offset, r.After = runs, runs[0].Off, gather(after)
	if len(r.Undo) == 0 {
		r.Before = gather(before)
	}
}

// AppendPageUpdate appends an update record for the page transition
// before -> after (both full page images): the byte runs that changed,
// or — if the page's prior image predates the full-page-write fence
// (its LSN is below the fence installed by the last checkpoint, or it
// was never logged at all) — the whole page as one run. The runs are
// computed before the log mutex is taken; the fence test is repeated
// under the same mutex that assigns the LSN, which is what makes the
// fence race-free: every record at or above a checkpoint's fence was
// appended by a caller that saw that fence, so the first post-checkpoint
// record for any page is always a full image and torn pages stay
// rebuildable after old segments are truncated.
//
// Returns nil (no error) when before and after are identical and the
// page is above the fence.
//
// undo optionally attaches a logical-undo descriptor (or the UndoNone
// redo-only marker for compensation records); nil selects physical
// undo from before bytes, which is only sound when no concurrent
// transaction can interleave records on the same page (system
// transactions holding the page latch or a structure-wide lock for
// their whole lifetime). Only then does the record carry before bytes.
func (l *Log) AppendPageUpdate(txnID uint64, prevLSN LSN, pid storage.PageID, before, after, undo []byte) (*Record, error) {
	pageLSN := LSN(storage.WrapPage(pid, before).LSN())
	rec := &Record{Txn: txnID, Type: RecUpdate, PageID: pid, PrevLSN: prevLSN, Undo: undo}
	var runs []Run // nil: the whole page
	full := pageLSN < l.FullPageFence()
	if !full {
		if runs = diffRuns(before, after); runs == nil {
			return nil, nil
		}
	}
	rec.fill(runs, before, after)
	l.mu.Lock()
	defer l.mu.Unlock()
	if !full && pageLSN < l.fence {
		rec.fill(nil, before, after) // a checkpoint began since the test above
	}
	l.appendLocked(rec)
	return rec, nil
}

// Flush makes every record with LSN < upTo durable. Returns
// immediately when upTo is already covered; otherwise the caller
// either becomes the flush leader — writing the whole pending buffer
// and issuing one device sync — or waits for an in-flight leader whose
// sync covers its LSN (group commit). The leader performs I/O outside
// the log lock, so appends proceed concurrently.
func (l *Log) Flush(upTo LSN) error {
	l.mu.Lock()
	for {
		if l.flushed >= upTo {
			l.mu.Unlock()
			return nil
		}
		if !l.syncing {
			break // become the leader
		}
		l.flushDone.Wait()
	}
	l.syncing = true
	// Take ownership of the pending bytes; appends continue into a
	// fresh buffer at the advanced offset while we do I/O. The whole
	// pending buffer belongs to the active segment: rolls only happen
	// after a flush completes, so the buffer never spans segments.
	buf := l.buf
	start := l.bufStart
	act := l.active()
	l.buf = nil
	l.bufStart = start + uint64(len(buf))
	target := l.bufStart
	l.mu.Unlock()

	var err error
	if len(buf) > 0 {
		if _, werr := act.dev.WriteAt(buf, act.devOff(LSN(start))); werr != nil {
			err = fmt.Errorf("wal: flushing: %w", werr)
		}
	}
	if err == nil {
		err = act.dev.Sync()
	}

	l.mu.Lock()
	l.syncing = false
	if err == nil {
		l.syncs++
		l.flushed = LSN(target)
		act.end = l.flushed
		// A failed rollover must not fail the flush: every record the
		// caller asked for is already durable in the active segment.
		// The roll condition still holds, so the next successful flush
		// retries it; until then appends keep landing in the oversized
		// active segment (degraded but correct).
		if rerr := l.maybeRollLocked(); rerr != nil {
			l.rollFails++
		}
	} else if len(buf) > 0 {
		// Put the unwritten bytes back so a later flush retries them.
		l.buf = append(buf, l.buf...)
		l.bufStart = start
	}
	l.flushDone.Broadcast()
	l.mu.Unlock()
	return err
}

// DurableBoundary returns the log's durability boundary: every record
// with LSN strictly below the boundary is safe on the device; the
// record at or beyond it (if any) is not yet durable.
func (l *Log) DurableBoundary() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// OldestLSN returns the base LSN of the oldest live segment: the
// earliest record Iterate can still reach after truncation.
func (l *Log) OldestLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].base
}

// Iterate replays durable records with LSN >= from in log order. Pass
// ZeroLSN to start at the oldest retained record. A positive from that
// lies below the oldest live segment names truncated history and fails
// with ErrSegmentGone — a lagging log shipper must resynchronise (full
// copy) rather than silently skip the reclaimed records. The callback
// may return io.EOF to stop early.
func (l *Log) Iterate(from LSN, fn func(*Record) error) error {
	// Snapshot the segment list AND each segment's durable end under
	// the mutex: flush advances the active segment's end concurrently.
	type segView struct {
		seg *segment
		end LSN
	}
	l.mu.Lock()
	views := make([]segView, len(l.segs))
	for i, s := range l.segs {
		views[i] = segView{seg: s, end: s.end}
	}
	limit := l.flushed
	l.mu.Unlock()
	if from < views[0].seg.base {
		if from != ZeroLSN {
			return fmt.Errorf("%w: LSN %d predates oldest segment %d (base %d)",
				ErrSegmentGone, from, views[0].seg.seq, views[0].seg.base)
		}
		from = views[0].seg.base
	}
	for _, v := range views {
		seg := v.seg
		segEnd := v.end
		if segEnd > limit {
			segEnd = limit
		}
		if from >= segEnd {
			continue
		}
		lsn := from
		if lsn < seg.base {
			lsn = seg.base
		}
		for lsn < segEnd {
			rec, next, err := seg.readRecord(lsn, segEnd)
			if err != nil {
				if errors.Is(err, ErrTornTail) {
					// Everything below segEnd was durable and validated
					// (Open truncates the real torn tail before the log
					// accepts traffic), so a short or unframable record
					// here is corruption — ending the scan quietly
					// would silently drop every later segment's
					// committed records.
					return fmt.Errorf("%w: unreadable record at LSN %d in segment %d", ErrCorrupt, lsn, seg.seq)
				}
				return err
			}
			if err := fn(rec); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			lsn = next
		}
		from = segEnd
	}
	return nil
}

// Size returns the durable log footprint in bytes: segment headers plus
// durable record bytes across every live segment. Checkpoint truncation
// shrinks it.
func (l *Log) Size() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total uint64
	for _, s := range l.segs {
		end := s.end
		if end > l.flushed {
			end = l.flushed
		}
		total += segHeaderSize + uint64(end-s.base)
	}
	return total
}

// SegmentCount returns the number of live segments.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// OldestSegment returns the sequence number of the oldest live segment.
func (l *Log) OldestSegment() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].seq
}

// ActiveSegment returns the sequence number of the segment receiving
// appends.
func (l *Log) ActiveSegment() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.active().seq
}

// --- checkpoints --------------------------------------------------------

// BeginCheckpoint starts a fuzzy checkpoint: it advances the full-page-
// write fence to the current NextLSN and returns that LSN together with
// the active-transaction table as of the same instant. From this
// moment, the first mutation of any page whose image predates the fence
// logs a full page image (see AppendPageUpdate), so once the checkpoint
// completes and older segments are truncated, any page a future crash
// can tear still has a full image inside the retained log suffix. Every
// record below the fence that a later rollback could need belongs to a
// transaction in the returned table.
func (l *Log) BeginCheckpoint() (LSN, []CkptTxn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fence = l.nextLSN
	att := make([]CkptTxn, 0, len(l.open))
	for _, t := range l.open {
		att = append(att, t)
	}
	return l.fence, att
}

// CompleteCheckpoint persists the checkpoint in the manifest — the
// checkpoint record's LSN and the recovery-begin LSN (the minimum of
// the fence, the dirty-page table's recLSNs and the oldest active
// transaction's first LSN, as computed by the caller) — then deletes
// every segment wholly below the recovery-begin LSN. The manifest is
// synced before any segment is removed, so a crash between the two
// steps only delays truncation, never loses needed history.
func (l *Log) CompleteCheckpoint(ckpt, recoveryBegin LSN) error {
	l.mu.Lock()
	if recoveryBegin > l.flushed {
		recoveryBegin = l.flushed
	}
	// Never let the manifest point below the oldest live segment: the
	// records there are already gone, and a recovery-begin naming them
	// would make the next Open fail with ErrSegmentGone. (Checkpoints
	// are serialised by the transaction manager; this is the backstop.)
	if base := l.segs[0].base; recoveryBegin < base {
		recoveryBegin = base
	}
	m := manifest{checkpoint: ckpt, recoveryBegin: recoveryBegin, fence: l.fence}
	l.checkpoint = ckpt
	l.recoveryBegin = recoveryBegin
	if err := l.writeManifest(m); err != nil {
		l.mu.Unlock()
		return err
	}
	// Truncate: drop segments whose every record lies below the
	// recovery-begin LSN — and below the retention hook's min-shipped
	// LSN, so a lagging log shipper keeps its unread suffix instead of
	// being forced into a full resynchronisation. The manifest above
	// still records the true recovery-begin LSN: retention only delays
	// file removal, never recovery semantics. The active segment is
	// never dropped. Each segment leaves l.segs only after its file
	// removal succeeded, so a removal failure keeps the log's view
	// (OldestLSN, Size, Iterate) honest and the retry happens at the
	// next checkpoint.
	truncateBelow := recoveryBegin
	if l.retainFn != nil {
		if keep := l.retainFn(); keep < truncateBelow {
			truncateBelow = keep
		}
	}
	var removable []*segment
	for i := 0; i+1 < len(l.segs) && l.segs[i+1].base <= truncateBelow; i++ {
		removable = append(removable, l.segs[i])
	}
	// Count (once per round) when the hook kept segments alive that
	// recovery no longer needs.
	if i := len(removable); i+1 < len(l.segs) && l.segs[i+1].base <= recoveryBegin {
		l.retainedHolds++
	}
	l.mu.Unlock()
	removed := 0
	var rmErr error
	for _, seg := range removable {
		if rmErr = l.dir.RemoveSegment(seg.seq); rmErr != nil {
			break
		}
		_ = seg.dev.Close()
		removed++
	}
	if removed > 0 {
		l.mu.Lock()
		l.segs = append([]*segment(nil), l.segs[removed:]...)
		l.mu.Unlock()
		if serr := l.dir.Sync(); serr != nil && rmErr == nil {
			rmErr = serr
		}
	}
	return rmErr
}

// writeManifest persists a manifest image. Callers hold l.mu.
func (l *Log) writeManifest(m manifest) error {
	if _, err := l.manifestDev.WriteAt(encodeManifest(m), 0); err != nil {
		return fmt.Errorf("wal: persisting manifest: %w", err)
	}
	return l.manifestDev.Sync()
}

func (l *Log) writeManifestLocked() error {
	return l.writeManifest(manifest{
		checkpoint:    l.checkpoint,
		recoveryBegin: l.recoveryBegin,
		fence:         l.fence,
	})
}

// Checkpoint takes a self-contained checkpoint without table snapshots:
// the caller promises no transactions are in flight and every dirty
// page has been flushed (quiescent embedders and tests). The
// transaction manager's fuzzy Checkpoint is the production path — it
// snapshots the active-transaction and dirty-page tables and computes
// the true recovery-begin LSN without quiescing anything.
func (l *Log) Checkpoint() (LSN, error) {
	_, _ = l.BeginCheckpoint()
	lsn, err := l.Append(&Record{Type: RecCheckpoint})
	if err != nil {
		return ZeroLSN, err
	}
	if err := l.Flush(lsn + 1); err != nil {
		return ZeroLSN, err
	}
	if err := l.CompleteCheckpoint(lsn, lsn); err != nil {
		return ZeroLSN, err
	}
	return lsn, nil
}

// SetRetention installs (or clears, with nil) the log-retention hook: a
// provider of the minimum LSN still needed by external log consumers
// (replication shippers). Checkpoint truncation never removes a segment
// containing records at or above the reported LSN, so a slow replica
// finds its resume point intact instead of receiving ErrSegmentGone.
// The hook is called with the log mutex held and must not call back
// into the log.
func (l *Log) SetRetention(fn func() LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retainFn = fn
}

// RetentionHolds reports how many checkpoint truncation rounds were
// (partially) held back by the retention hook.
func (l *Log) RetentionHolds() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.retainedHolds
}

// LastCheckpoint returns the LSN of the most recent completed
// checkpoint record (ZeroLSN if none was ever taken).
func (l *Log) LastCheckpoint() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checkpoint
}

// RecoveryBegin returns the LSN recovery scans from (ZeroLSN = the
// whole retained log).
func (l *Log) RecoveryBegin() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recoveryBegin
}

// FullPageFence returns the current full-page-write fence: a page whose
// image carries an LSN below the fence has its next mutation logged as
// a full page image.
func (l *Log) FullPageFence() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fence
}

// BeforeEvict returns a buffer-manager hook enforcing the write-ahead
// rule: a dirty page with page LSN >= DurableBoundary forces a log
// flush before the page may be written back.
func (l *Log) BeforeEvict() func(storage.PageID, uint64) error {
	return func(id storage.PageID, pageLSN uint64) error {
		if LSN(pageLSN) >= l.DurableBoundary() {
			return l.Flush(LSN(pageLSN) + 1)
		}
		return nil
	}
}
