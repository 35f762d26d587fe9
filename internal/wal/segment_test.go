package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/storage"
)

// fillRecord returns an update record of roughly n payload bytes.
func fillRecord(txn uint64, n int) *Record {
	return &Record{
		Txn: txn, Type: RecUpdate, PageID: 7, Offset: 0,
		Before: make([]byte, n/2), After: make([]byte, n/2),
	}
}

func TestSegmentRollover(t *testing.T) {
	dir := NewMemSegmentDir()
	l, err := OpenDir(dir, minSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	var lsns []LSN
	for i := 0; i < 40; i++ {
		lsn, err := l.Append(fillRecord(uint64(i), 1024))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		if err := l.Flush(l.NextLSN()); err != nil {
			t.Fatal(err)
		}
	}
	if l.Rolls() == 0 || l.SegmentCount() < 2 {
		t.Fatalf("rolls = %d, segments = %d; expected rollover", l.Rolls(), l.SegmentCount())
	}
	// Every record is still reachable, in order, with its original LSN.
	var got []LSN
	if err := l.Iterate(ZeroLSN, func(r *Record) error { got = append(got, r.LSN); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lsns) {
		t.Fatalf("iterated %d records, want %d", len(got), len(lsns))
	}
	for i := range got {
		if got[i] != lsns[i] {
			t.Fatalf("record %d: lsn %d, want %d", i, got[i], lsns[i])
		}
	}
	// Iterating from a mid-log LSN starts exactly there.
	mid := lsns[len(lsns)/2]
	var fromMid int
	_ = l.Iterate(mid, func(r *Record) error {
		if r.LSN < mid {
			t.Fatalf("record %d below requested start %d", r.LSN, mid)
		}
		fromMid++
		return nil
	})
	if fromMid != len(lsns)-len(lsns)/2 {
		t.Fatalf("fromMid = %d", fromMid)
	}
}

func TestSegmentedReopenFindsTail(t *testing.T) {
	dir := NewMemSegmentDir()
	l, err := OpenDir(dir, minSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for l.SegmentCount() < 3 {
		if _, err := l.Append(fillRecord(uint64(n), 2048)); err != nil {
			t.Fatal(err)
		}
		n++
		if err := l.Flush(l.NextLSN()); err != nil {
			t.Fatal(err)
		}
	}
	next := l.NextLSN()

	l2, err := OpenDir(dir, minSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	if l2.NextLSN() != next {
		t.Fatalf("NextLSN after reopen = %d, want %d", l2.NextLSN(), next)
	}
	if l2.SegmentCount() != l.SegmentCount() {
		t.Fatalf("segments after reopen = %d, want %d", l2.SegmentCount(), l.SegmentCount())
	}
	seen := 0
	if err := l2.Iterate(ZeroLSN, func(r *Record) error { seen++; return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("records after reopen = %d, want %d", seen, n)
	}
}

func TestCheckpointTruncatesSegments(t *testing.T) {
	dir := NewMemSegmentDir()
	l, err := OpenDir(dir, minSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	for l.SegmentCount() < 4 {
		if _, err := l.Append(fillRecord(1, 2048)); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(l.NextLSN()); err != nil {
			t.Fatal(err)
		}
	}
	before := l.SegmentCount()
	ck, err := l.Checkpoint() // quiescent convenience path: recoveryBegin = ck
	if err != nil {
		t.Fatal(err)
	}
	if l.SegmentCount() >= before {
		t.Fatalf("segments %d -> %d: checkpoint did not truncate", before, l.SegmentCount())
	}
	if dir.Removed() == 0 {
		t.Fatal("no segment files were deleted")
	}
	if l.OldestLSN() > ck {
		t.Fatalf("oldest LSN %d above checkpoint %d", l.OldestLSN(), ck)
	}
	// The truncated history is unreachable; iteration starts at the
	// oldest live segment and still reaches the checkpoint record.
	sawCkpt := false
	if err := l.Iterate(ZeroLSN, func(r *Record) error {
		if r.LSN < l.OldestLSN() {
			t.Fatalf("iterated record %d below oldest %d", r.LSN, l.OldestLSN())
		}
		if r.Type == RecCheckpoint && r.LSN == ck {
			sawCkpt = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawCkpt {
		t.Fatal("checkpoint record not reachable after truncation")
	}

	// Reopen: manifest and surviving segments agree.
	l2, err := OpenDir(dir, minSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	if l2.LastCheckpoint() != ck || l2.RecoveryBegin() != ck {
		t.Fatalf("manifest after reopen: ckpt=%d rb=%d, want %d", l2.LastCheckpoint(), l2.RecoveryBegin(), ck)
	}
}

// TestSizeBoundedUnderCheckpoints drives appends with periodic
// checkpoints and asserts the total log footprint stays bounded — the
// acceptance criterion that the WAL no longer grows without bound.
func TestSizeBoundedUnderCheckpoints(t *testing.T) {
	dir := NewMemSegmentDir()
	l, err := OpenDir(dir, minSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	var maxSize uint64
	for i := 0; i < 400; i++ {
		if _, err := l.Append(fillRecord(uint64(i), 1024)); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(l.NextLSN()); err != nil {
			t.Fatal(err)
		}
		if i%25 == 24 {
			if _, err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if s := l.Size(); s > maxSize {
			maxSize = s
		}
	}
	// ~400 KiB of records total; with checkpoints every 25 records the
	// live window is a few segments at most.
	if limit := uint64(8 * minSegmentBytes); maxSize > limit {
		t.Fatalf("log footprint reached %d bytes (limit %d): truncation is not keeping up", maxSize, limit)
	}
	if l.OldestSegment() == 1 {
		t.Fatal("oldest segment never advanced")
	}
}

// TestFullPageWriteAfterFence: the first update of a page after a
// checkpoint fence logs a full page image even though the page was
// logged before; later updates log diffs again.
func TestFullPageWriteAfterFence(t *testing.T) {
	dir := NewMemSegmentDir()
	l, err := OpenDir(dir, minSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, storage.PageSize)
	next := func(lsn LSN, mut func([]byte)) *Record {
		before := append([]byte(nil), page...)
		mut(page)
		rec, err := l.AppendPageUpdate(1, 0, 42, before, page, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rec != nil {
			storage.WrapPage(42, page).SetLSN(uint64(rec.LSN))
		}
		return rec
	}
	// First-ever touch: full image (prior LSN 0 < initial fence 1).
	r1 := next(0, func(p []byte) { p[100] = 1 })
	if len(r1.After) != storage.PageSize || r1.Offset != 0 {
		t.Fatalf("first touch logged %d bytes at %d, want a full image", len(r1.After), r1.Offset)
	}
	// Second touch: a minimal diff.
	r2 := next(r1.LSN, func(p []byte) { p[200] = 2 })
	if len(r2.After) >= storage.PageSize {
		t.Fatalf("second touch logged %d bytes, want a diff", len(r2.After))
	}
	// After a fence advance, the next touch is a full image again.
	l.BeginCheckpoint()
	r3 := next(r2.LSN, func(p []byte) { p[300] = 3 })
	if len(r3.After) != storage.PageSize || r3.Offset != 0 {
		t.Fatalf("post-fence touch logged %d bytes at %d, want a full image", len(r3.After), r3.Offset)
	}
	// And the one after that is a diff.
	r4 := next(r3.LSN, func(p []byte) { p[400] = 4 })
	if len(r4.After) >= storage.PageSize {
		t.Fatalf("post-FPW touch logged %d bytes, want a diff", len(r4.After))
	}
	// Identical images log nothing.
	if rec := next(r4.LSN, func(p []byte) {}); rec != nil {
		t.Fatalf("no-op mutation logged record %+v", rec)
	}
}

// TestCrashDuringRolloverDropsEmptySegment: a segment file that exists
// but whose header never became durable (crash mid-rollover) is
// discarded on open — nothing in it was ever acknowledged.
func TestCrashDuringRolloverDropsEmptySegment(t *testing.T) {
	dir := NewMemSegmentDir()
	l, err := OpenDir(dir, minSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	for l.SegmentCount() < 2 {
		if _, err := l.Append(fillRecord(1, 2048)); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(l.NextLSN()); err != nil {
			t.Fatal(err)
		}
	}
	next := l.NextLSN()
	// Simulate the crash: the next segment file appears with a torn
	// (half-written) header.
	seqs, _ := dir.ListSegments()
	newest := seqs[len(seqs)-1]
	dev, err := dir.OpenSegment(newest + 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WriteAt(encodeSegHeader(newest+1, next)[:10], 0); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenDir(dir, minSegmentBytes)
	if err != nil {
		t.Fatalf("reopen after crashed rollover: %v", err)
	}
	if l2.NextLSN() != next {
		t.Fatalf("NextLSN = %d, want %d", l2.NextLSN(), next)
	}
	if got, _ := dir.ListSegments(); got[len(got)-1] != newest {
		t.Fatalf("torn rollover segment survived: %v", got)
	}
	// The log keeps working: appends land in the recovered active
	// segment and roll onward normally.
	if _, err := l2.Append(fillRecord(9, 512)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Flush(l2.NextLSN()); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDuringFirstInitRecovers: a crash during the very first
// segment's header write (before anything was ever acknowledged) must
// not brick the directory — reopening reinitialises from scratch.
func TestCrashDuringFirstInitRecovers(t *testing.T) {
	dir := NewMemSegmentDir()
	// Simulate the torn first-ever header: manifest absent, segment 1
	// exists with a half-written header.
	dev, err := dir.OpenSegment(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WriteAt(encodeSegHeader(1, LSN(segHeaderSize))[:12], 0); err != nil {
		t.Fatal(err)
	}
	l, err := OpenDir(dir, minSegmentBytes)
	if err != nil {
		t.Fatalf("open after crashed first init: %v", err)
	}
	if _, err := l.Append(fillRecord(1, 256)); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(l.NextLSN()); err != nil {
		t.Fatal(err)
	}
	// A torn sole segment on a log that HAS a completed checkpoint is
	// real corruption and must still fail loudly.
	if _, err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dev2, err := dir.OpenSegment(l.OldestSegment())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev2.WriteAt([]byte{0xDE, 0xAD}, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, minSegmentBytes); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt checkpointed segment accepted: %v", err)
	}
}

// TestIterateBelowOldestFailsLoudly: a positive LSN below the oldest
// live segment names truncated history; Iterate must fail with
// ErrSegmentGone instead of silently skipping records (a lagging log
// shipper must resynchronise, not diverge).
func TestIterateBelowOldestFailsLoudly(t *testing.T) {
	dir := NewMemSegmentDir()
	l, err := OpenDir(dir, minSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	watermark := l.NextLSN()
	for l.SegmentCount() < 3 {
		if _, err := l.Append(fillRecord(1, 2048)); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(l.NextLSN()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if l.OldestLSN() <= watermark {
		t.Fatalf("checkpoint did not truncate past the watermark (%d vs %d)", l.OldestLSN(), watermark)
	}
	err = l.Iterate(watermark, func(r *Record) error { return nil })
	if !errors.Is(err, ErrSegmentGone) {
		t.Fatalf("Iterate below oldest = %v, want ErrSegmentGone", err)
	}
	// ZeroLSN explicitly means "oldest retained" and still works.
	if err := l.Iterate(ZeroLSN, func(r *Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestTornManifestFallsBackConservatively: a torn manifest write is
// survivable — the log opens, scans from the oldest live segment, and
// forces full-page images on every next touch.
func TestTornManifestFallsBackConservatively(t *testing.T) {
	dir := NewMemSegmentDir()
	l, err := OpenDir(dir, minSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(fillRecord(uint64(i), 512)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(l.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	next := l.NextLSN()
	// Tear the manifest: flip a byte inside the CRC-covered region.
	mdev, err := dir.OpenManifest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mdev.WriteAt([]byte{0xFF}, 20); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenDir(dir, minSegmentBytes)
	if err != nil {
		t.Fatalf("open with torn manifest: %v", err)
	}
	if l2.LastCheckpoint() != ZeroLSN || l2.RecoveryBegin() != ZeroLSN {
		t.Fatalf("torn manifest not discarded: ckpt=%d rb=%d", l2.LastCheckpoint(), l2.RecoveryBegin())
	}
	if l2.FullPageFence() != next {
		t.Fatalf("fence = %d, want conservative %d", l2.FullPageFence(), next)
	}
}

// TestCheckpointPayloadRoundTrip pins the checkpoint table encoding.
func TestCheckpointPayloadRoundTrip(t *testing.T) {
	in := CheckpointData{
		Fence: 12345,
		ATT: []CkptTxn{
			{ID: 1, First: 100, Last: 900},
			{ID: 7, First: 300, Last: 300},
		},
		DPT: []CkptPage{
			{Page: 3, RecLSN: 150},
			{Page: 9, RecLSN: 0},
		},
	}
	out, err := DecodeCheckpoint(EncodeCheckpoint(in))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", out) != fmt.Sprintf("%+v", in) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
	if _, err := DecodeCheckpoint(nil); err != nil {
		t.Fatalf("empty payload: %v", err)
	}
	if _, err := DecodeCheckpoint([]byte{1, 2, 3}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short payload err = %v", err)
	}
}

// TestOpenRefusesOldSegmentFormat: a directory whose segment carries the
// previous format's magic is refused with ErrFormat, and left byte for
// byte as it was found — nothing dropped, truncated or created.
func TestOpenRefusesOldSegmentFormat(t *testing.T) {
	dir := NewMemSegmentDir()
	dev := segDev(t, dir, 1)
	old := make([]byte, segHeaderSize+100) // a WA1 header and some records
	binary.LittleEndian.PutUint64(old[0:], segMagicV1)
	binary.LittleEndian.PutUint64(old[8:], 1)
	binary.LittleEndian.PutUint64(old[16:], segHeaderSize)
	binary.LittleEndian.PutUint32(old[24:], crc32.Checksum(old[:24], crcTable))
	for i := segHeaderSize; i < len(old); i++ {
		old[i] = byte(i)
	}
	if _, err := dev.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}

	_, err := OpenDir(dir, 0)
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("OpenDir over a WA1 segment: %v", err)
	}
	var coded *CodedError
	if !errors.As(err, &coded) || coded.Code != 1101 {
		t.Fatalf("error %v carries no code", err)
	}
	got := make([]byte, len(old))
	if size, _ := dev.Size(); size != int64(len(old)) {
		t.Fatalf("segment is %d bytes after the refusal, was %d", size, len(old))
	}
	if _, err := dev.ReadAt(got, 0); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("segment bytes changed (read err %v)", err)
	}
	if seqs, _ := dir.ListSegments(); len(seqs) != 1 || dir.Removed() != 0 {
		t.Fatalf("segments after the refusal: %v, %d removed", seqs, dir.Removed())
	}
	if m, _ := dir.OpenManifest(); m != nil {
		if size, _ := m.Size(); size != 0 {
			t.Fatalf("a manifest of %d bytes was written", size)
		}
	}
}
