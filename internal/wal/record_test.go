package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/storage"
)

// mutated returns a copy of page with every (offset, bytes) patch applied.
func mutated(page []byte, patches map[int][]byte) []byte {
	out := append([]byte(nil), page...)
	for off, b := range patches {
		copy(out[off:], b)
	}
	return out
}

func ones(n int) []byte { return bytes.Repeat([]byte{0xFF}, n) }

func TestDiffRuns(t *testing.T) {
	page := make([]byte, storage.PageSize)
	last := storage.PageSize - 1
	for _, tc := range []struct {
		name    string
		patches map[int][]byte
		want    []Run
	}{
		{"identical", nil, nil},
		{"one byte", map[int][]byte{100: {1}}, []Run{{100, 1}}},
		{"first byte", map[int][]byte{0: {1}}, []Run{{0, 1}}},
		{"last byte", map[int][]byte{last: {1}}, []Run{{uint16(last), 1}}},
		// 15 equal bytes between two changes: one run spanning both.
		{"gap 15", map[int][]byte{100: {1}, 116: {1}}, []Run{{100, 17}}},
		// 16 equal bytes between them: a run each.
		{"gap 16", map[int][]byte{100: {1}, 117: {1}}, []Run{{100, 1}, {117, 1}}},
		{"gap 16 at the page end", map[int][]byte{last - 17: {1}, last: {1}}, []Run{{uint16(last - 17), 1}, {uint16(last), 1}}},
		{"unaligned long run", map[int][]byte{1003: ones(333)}, []Run{{1003, 333}}},
		{"whole page", map[int][]byte{0: ones(storage.PageSize)}, []Run{{0, storage.PageSize}}},
		// A slotted-page insert: two header fields, one new slot behind
		// a long directory, a 120-byte cell at the back of the page.
		{"slot directory and cell", map[int][]byte{
			storage.HeaderSize: {9, 0}, storage.HeaderSize + 4: {0x10, 0x0E},
			storage.HeaderSize + 8 + 4*40: {0x10, 0x0E, 120, 0},
			3600:                          ones(120),
		}, []Run{{storage.HeaderSize, 6}, {storage.HeaderSize + 8 + 4*40, 3}, {3600, 120}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := diffRuns(page, mutated(page, tc.patches)); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("runs = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestAppendPageUpdateRuns: what AppendPageUpdate puts in a record — the
// changed runs above the fence, the whole page as one run below it, and
// before bytes only when the record is physically undoable.
func TestAppendPageUpdateRuns(t *testing.T) {
	l := newLog(t)
	page := make([]byte, storage.PageSize)
	insert := map[int][]byte{
		storage.HeaderSize: {9, 0}, storage.HeaderSize + 4: {0x10, 0x0E},
		storage.HeaderSize + 8 + 4*40: {0x10, 0x0E, 120, 0},
		3600:                          ones(120),
	}

	// Never logged (page LSN 0 is below the initial fence): exactly one
	// (0, PageSize) run, whatever the diff — here there is none at all.
	rec, err := l.AppendPageUpdate(1, 0, 42, page, page, []byte("inverse"))
	if err != nil || rec == nil {
		t.Fatalf("below the fence: rec %v, err %v", rec, err)
	}
	if !reflect.DeepEqual(rec.Runs, []Run{{0, storage.PageSize}}) || len(rec.After) != storage.PageSize || rec.Before != nil {
		t.Fatalf("below the fence: runs %v, after %d, before %d", rec.Runs, len(rec.After), len(rec.Before))
	}
	storage.WrapPage(42, page).SetLSN(uint64(rec.LSN))

	// Above the fence, identical pages: no record.
	if rec, err := l.AppendPageUpdate(1, rec.LSN, 42, page, page, nil); rec != nil || err != nil {
		t.Fatalf("identical pages logged %+v, %v", rec, err)
	}

	// A heap insert with a logical-undo descriptor: at most three runs,
	// under 200 bytes for the 120-byte cell, no before bytes.
	after := mutated(page, insert)
	rec, err = l.AppendPageUpdate(1, rec.LSN, 42, page, after, []byte("inverse"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Runs) > 3 || rec.Before != nil || len(rec.After) != 6+3+120 {
		t.Fatalf("insert: runs %v, after %d, before %d", rec.Runs, len(rec.After), len(rec.Before))
	}
	if size := int(l.NextLSN() - rec.LSN); size >= 200 {
		t.Fatalf("insert record is %d bytes on the log", size)
	}
	got, want := append([]byte(nil), page...), append([]byte(nil), after...)
	rec.Redo(storage.WrapPage(42, got))
	storage.WrapPage(42, want).SetLSN(uint64(rec.LSN))
	if !bytes.Equal(got, want) {
		t.Fatal("redo of the insert does not reproduce the after image")
	}

	// The same transition without a descriptor is physically undoable
	// and carries before bytes of the same shape; so does a full image.
	phys, err := l.AppendPageUpdate(2, 0, 42, page, after, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(phys.Runs, rec.Runs) || len(phys.Before) != len(phys.After) {
		t.Fatalf("physical record: runs %v, before %d, after %d", phys.Runs, len(phys.Before), len(phys.After))
	}
	l.BeginCheckpoint()
	full, err := l.AppendPageUpdate(2, phys.LSN, 42, page, after, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Runs, []Run{{0, storage.PageSize}}) || !bytes.Equal(full.Before, page) || !bytes.Equal(full.After, after) {
		t.Fatalf("post-fence physical record: runs %v", full.Runs)
	}
}

// TestRedoUndoProperty: for random mutations of a random page,
// Redo(before) == after, and for physical records UndoPhysical(after)
// == before (both up to the LSN stamp they leave on the page).
func TestRedoUndoProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	l := newLog(t)
	l.fence = 0 // every page counts as logged: diffs, not full images
	for iter := 0; iter < 300; iter++ {
		before := make([]byte, storage.PageSize)
		rng.Read(before)
		after := append([]byte(nil), before...)
		for n := rng.Intn(6); n >= 0; n-- {
			off := rng.Intn(storage.PageSize)
			ln := 1 + rng.Intn(200)
			if rng.Intn(4) == 0 {
				ln = 1
			}
			if off+ln > storage.PageSize {
				ln = storage.PageSize - off
			}
			rng.Read(after[off : off+ln])
		}
		// The page LSN is stamped after the append, never part of a diff.
		copy(after[8:16], before[8:16])
		var undo []byte
		if iter%2 == 0 {
			undo = []byte("inverse")
		}
		rec, err := l.AppendPageUpdate(1, 0, 7, before, after, undo)
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			if !bytes.Equal(before, after) {
				t.Fatal("no record for differing pages")
			}
			continue
		}
		if (len(rec.Before) > 0) != (len(rec.Undo) == 0) {
			t.Fatalf("before bytes present = %v with undo %q", len(rec.Before) > 0, rec.Undo)
		}
		stamped := func(img []byte) []byte {
			out := append([]byte(nil), img...)
			storage.WrapPage(7, out).SetLSN(uint64(rec.LSN))
			return out
		}
		page := append([]byte(nil), before...)
		rec.Redo(storage.WrapPage(7, page))
		if !bytes.Equal(page, stamped(after)) {
			t.Fatalf("iter %d: Redo(before) != after (runs %v)", iter, rec.Runs)
		}
		if undo == nil {
			rec.UndoPhysical(storage.WrapPage(7, page))
			if !bytes.Equal(page, stamped(before)) {
				t.Fatalf("iter %d: UndoPhysical(after) != before (runs %v)", iter, rec.Runs)
			}
		}
	}
}

// segmentOver lays body out as the record area of a one-segment log.
func segmentOver(t testing.TB, body []byte) (*segment, LSN) {
	t.Helper()
	dev := storage.NewMemDevice()
	base := LSN(segHeaderSize)
	if _, err := dev.WriteAt(encodeSegHeader(1, base), 0); err != nil {
		t.Fatal(err)
	}
	if len(body) > 0 {
		if _, err := dev.WriteAt(body, segHeaderSize); err != nil {
			t.Fatal(err)
		}
	}
	return &segment{seq: 1, base: base, dev: dev}, base + LSN(len(body))
}

// sampleRecords covers the record shapes the encoder produces: no runs,
// one run, many runs; with and without before bytes; with and without
// an undo descriptor; commit and checkpoint payloads.
func sampleRecords() []*Record {
	many := &Record{Txn: 5, Type: RecUpdate, PageID: 11, PrevLSN: 4242, Offset: 32,
		Runs: []Run{{32, 6}, {200, 3}, {3600, 120}}, After: bytes.Repeat([]byte("a"), 129), Undo: []byte("heap-insert 11:40")}
	physical := *many
	physical.Undo, physical.Before = nil, bytes.Repeat([]byte("b"), 129)
	return []*Record{
		{Txn: 1, Type: RecUpdate, PageID: 3},
		{Txn: 1, Type: RecAbort, PrevLSN: 99},
		{Txn: 2, Type: RecCommit, PrevLSN: 7, After: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Txn: 3, Type: RecUpdate, PageID: 9, Offset: 40, After: []byte("new"), Before: []byte("old")},
		{Txn: 3, Type: RecUpdate, PageID: 9, Offset: 40, After: []byte("new"), Undo: UndoNone},
		{Txn: 4, Type: RecUpdate, PageID: 9, Runs: []Run{{0, storage.PageSize}},
			After: bytes.Repeat([]byte("a"), storage.PageSize), Before: bytes.Repeat([]byte("b"), storage.PageSize)},
		many,
		&physical,
		{Type: RecCheckpoint, After: EncodeCheckpoint(CheckpointData{Fence: 77, ATT: []CkptTxn{{ID: 5, First: 60, Last: 70}}, Clock: 9})},
	}
}

func TestRecordEncodeReadRoundTrip(t *testing.T) {
	var body []byte
	var ends []int
	for _, rec := range sampleRecords() {
		if err := rec.check(); err != nil {
			t.Fatalf("sample %+v: %v", rec, err)
		}
		body = encode(body, rec)
		ends = append(ends, len(body))
	}
	seg, limit := segmentOver(t, body)
	lsn := seg.base
	for i, want := range sampleRecords() {
		got, next, err := seg.readRecord(lsn, limit)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if next != seg.base+LSN(ends[i]) || got.LSN != lsn || got.End != next {
			t.Fatalf("record %d: lsn %d next %d end %d, want next %d", i, got.LSN, next, got.End, seg.base+LSN(ends[i]))
		}
		// Decoding spells the implicit single run out; nothing else moves.
		want.Runs = want.runs()
		want.LSN, want.End = got.LSN, got.End
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got, want)
		}
		// Re-encoding a decoded record reproduces the log bytes (what a
		// follower's byte-identical log copy depends on).
		start := 0
		if i > 0 {
			start = ends[i-1]
		}
		if !bytes.Equal(EncodeRecord(nil, got), body[start:ends[i]]) {
			t.Fatalf("record %d does not re-encode to its own bytes", i)
		}
		lsn = next
	}
	if _, _, err := seg.readRecord(lsn, limit); !errors.Is(err, ErrTornTail) {
		t.Fatalf("read past the last record: %v", err)
	}
}

// TestAppendRejectsUnencodable: a record readRecord would refuse never
// reaches the log, and before bytes beside an undo descriptor are shed.
func TestAppendRejectsUnencodable(t *testing.T) {
	l := newLog(t)
	for _, rec := range []*Record{
		{Type: RecUpdate, After: []byte("new"), Before: []byte("ol")},
		{Type: RecUpdate, Runs: []Run{{4090, 10}}, After: ones(10)},
		{Type: RecUpdate, Runs: []Run{{10, 4}}, After: ones(5)},
	} {
		if _, err := l.Append(rec); err == nil {
			t.Fatalf("appended %+v", rec)
		}
	}
	if l.NextLSN() != LSN(segHeaderSize) {
		t.Fatal("a rejected record moved the log tail")
	}
	rec := &Record{Type: RecUpdate, After: []byte("new"), Before: []byte("old"), Undo: UndoNone}
	if _, err := l.Append(rec); err != nil || rec.Before != nil {
		t.Fatalf("redo-only record: err %v, before %q", err, rec.Before)
	}
}

// TestReadRecordDamage: flipped bits and short tables surface as
// ErrCorrupt or ErrTornTail — never as a panic or a wrong record.
func TestReadRecordDamage(t *testing.T) {
	many := sampleRecords()[6]
	good := encode(nil, many)
	read := func(body []byte) error {
		seg, limit := segmentOver(t, body)
		_, _, err := seg.readRecord(seg.base, limit)
		return err
	}
	if err := read(good); err != nil {
		t.Fatal(err)
	}
	// Any single flipped bit past the length field fails the checksum.
	for i := 4; i < len(good); i++ {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x10
		if err := read(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: %v", i, err)
		}
	}
	// A cut anywhere is a torn tail.
	for cut := 0; cut < len(good); cut++ {
		if err := read(good[:cut]); !errors.Is(err, ErrTornTail) {
			t.Fatalf("cut at %d: %v", cut, err)
		}
	}
	// A well-checksummed record whose tables lie about the bytes that
	// follow is corrupt: a runs table longer than the body, runs that do
	// not add up to the after bytes, a run past the page end, an undo
	// length past the body, before bytes that do not halve.
	reseal := func(mut func(b []byte) []byte) []byte {
		b := mut(append([]byte(nil), good...))
		putLen(b)
		return b
	}
	for name, bad := range map[string][]byte{
		"truncated runs table": reseal(func(b []byte) []byte { return b[:4+recFixedSize+6] }),
		"runs exceed after":    reseal(func(b []byte) []byte { return b[:len(b)-1] }),
		"run past page end":    reseal(func(b []byte) []byte { b[4+recFixedSize] = 0xFF; b[4+recFixedSize+1] = 0x0F; return b }),
		"undo past body":       reseal(func(b []byte) []byte { b[34], b[35] = 0xFF, 0xFF; return b }),
		"odd before split":     reseal(func(b []byte) []byte { b[17] |= flagBefore; return b }),
		"runs on no bytes":     reseal(func(b []byte) []byte { return b[:4+recFixedSize+12] }),
	} {
		if err := read(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// putLen rewrites a mutated record's length and checksum so only the
// structural damage is left for decode to find.
func putLen(b []byte) {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(b[8:], crcTable))
}

var updateCorpus = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzReadRecord from the encoder")

// fuzzSeeds are segment bodies the encoder produced: each sample record
// alone, and all of them back to back.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	var all []byte
	for _, rec := range sampleRecords() {
		seeds = append(seeds, encode(nil, rec))
		all = encode(all, rec)
	}
	return append(seeds, all)
}

func corpusFile(i int) string {
	return filepath.Join("testdata", "fuzz", "FuzzReadRecord", fmt.Sprintf("seed-%02d", i))
}

// TestFuzzCorpusMatchesEncoder keeps the committed seed corpus equal to
// what the encoder writes today; after a format change, regenerate it
// with `go test ./internal/wal -run TestFuzzCorpusMatchesEncoder -update`.
func TestFuzzCorpusMatchesEncoder(t *testing.T) {
	for i, seed := range fuzzSeeds() {
		want := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n")
		if *updateCorpus {
			if err := os.MkdirAll(filepath.Dir(corpusFile(i)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(corpusFile(i), want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(corpusFile(i))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s is stale (err %v): rerun with -update", corpusFile(i), err)
		}
	}
}

// FuzzReadRecord feeds arbitrary bytes to the record reader as the body
// of a segment. Whatever it accepts must be safe to apply to a page and
// must re-encode to bytes that decode to the same encoding again;
// everything else must come back as an error.
func FuzzReadRecord(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		seg, limit := segmentOver(t, body)
		page := storage.NewPage(1, storage.PageTypeRaw)
		for lsn := seg.base; ; {
			rec, next, err := seg.readRecord(lsn, limit)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTornTail) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if next <= lsn || next > limit {
				t.Fatalf("record at %d ends at %d (limit %d)", lsn, next, limit)
			}
			rec.Redo(page)
			rec.UndoPhysical(page)
			once := encode(nil, rec)
			again, err := decode(once[4:])
			if err != nil {
				t.Fatalf("accepted record does not decode after re-encoding: %v", err)
			}
			if !bytes.Equal(encode(nil, again), once) {
				t.Fatalf("encoding is not stable for %+v", rec)
			}
			lsn = next
		}
	})
}
