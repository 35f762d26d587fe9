package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/storage"
)

// CodedError is a failure with a stable number: one code, one documented
// message, so the failure survives any boundary that can carry an
// integer. Match it with errors.Is against its sentinel. Codes 11xx are
// on-disk formats this build does not read: 1101 the log
// (wal.ErrFormat), 1102 the B+tree pages (index.ErrFormat).
type CodedError struct {
	Code int
	Msg  string
}

func (e *CodedError) Error() string { return fmt.Sprintf("E%d: %s", e.Code, e.Msg) }

// ErrFormat is returned by OpenDir when a segment was written in an
// older record format. There is one record format and no migration: the
// directory is left exactly as found, and the store has to be reloaded
// (sbdms -import) into a fresh one.
var ErrFormat = &CodedError{Code: 1101, Msg: "log segment written in an older record format"}

// ErrSegmentGone is returned when an Iterate caller races segment
// truncation: the requested range was reclaimed by a checkpoint. Log
// shippers should restart from OldestLSN.
var ErrSegmentGone = errors.New("wal: segment truncated away")

// SegmentDir is the container of a segmented log: numbered segment
// files plus a small manifest. Implementations must be safe for
// concurrent use. The wal package provides MemSegmentDir (tests,
// in-memory profiles) and FileSegmentDir (a directory on disk).
type SegmentDir interface {
	// OpenSegment opens (creating if absent) segment seq.
	OpenSegment(seq uint64) (storage.Device, error)
	// RemoveSegment deletes segment seq (checkpoint truncation).
	RemoveSegment(seq uint64) error
	// ListSegments returns the sequence numbers of existing segments.
	ListSegments() ([]uint64, error)
	// OpenManifest opens the manifest region (at least manifestSize
	// bytes, created zeroed if absent).
	OpenManifest() (storage.Device, error)
	// Sync makes directory-level mutations (segment creation and
	// removal) durable.
	Sync() error
}

// --- manifest ----------------------------------------------------------

// The manifest is one small record, rewritten in place on every
// completed checkpoint: magic, the checkpoint record's LSN, the
// recovery-begin LSN (where the next recovery scan starts, and the
// truncation horizon), and the full-page-write fence (the NextLSN
// observed when the checkpoint began). A CRC detects torn manifest
// writes; recovery then falls back to scanning from the oldest live
// segment with a conservative fence.
const (
	manifestSize  = 64
	manifestMagic = 0x5342444d53574d31 // "SBDMSWM1"
)

type manifest struct {
	checkpoint    LSN
	recoveryBegin LSN
	fence         LSN
}

func encodeManifest(m manifest) []byte {
	buf := make([]byte, manifestSize)
	binary.LittleEndian.PutUint64(buf[0:], manifestMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(m.checkpoint))
	binary.LittleEndian.PutUint64(buf[16:], uint64(m.recoveryBegin))
	binary.LittleEndian.PutUint64(buf[24:], uint64(m.fence))
	binary.LittleEndian.PutUint32(buf[32:], crc32.Checksum(buf[:32], crcTable))
	return buf
}

// decodeManifest parses a manifest image. ok=false reports a torn (CRC
// mismatch) manifest the caller may recover from conservatively; a bad
// magic is a hard error (foreign or mispointed file).
func decodeManifest(buf []byte) (m manifest, ok bool, err error) {
	if len(buf) < manifestSize {
		return m, false, nil
	}
	if binary.LittleEndian.Uint64(buf) != manifestMagic {
		return m, false, fmt.Errorf("%w: bad manifest magic", ErrCorrupt)
	}
	if crc32.Checksum(buf[:32], crcTable) != binary.LittleEndian.Uint32(buf[32:]) {
		return m, false, nil
	}
	m.checkpoint = LSN(binary.LittleEndian.Uint64(buf[8:]))
	m.recoveryBegin = LSN(binary.LittleEndian.Uint64(buf[16:]))
	m.fence = LSN(binary.LittleEndian.Uint64(buf[24:]))
	return m, true, nil
}

// --- segment header ----------------------------------------------------

// Each segment file begins with a fixed header carrying its sequence
// number and the global LSN of its first record byte, so LSNs stay a
// single monotonically increasing address space across truncation.
const (
	segHeaderSize = 32
	segMagic      = 0x5342444d53574132 // "SBDMSWA2": multi-run update records
	segMagicV1    = 0x5342444d53574131 // "SBDMSWA1": single-span records, refused
)

func encodeSegHeader(seq uint64, base LSN) []byte {
	buf := make([]byte, segHeaderSize)
	binary.LittleEndian.PutUint64(buf[0:], segMagic)
	binary.LittleEndian.PutUint64(buf[8:], seq)
	binary.LittleEndian.PutUint64(buf[16:], uint64(base))
	binary.LittleEndian.PutUint32(buf[24:], crc32.Checksum(buf[:24], crcTable))
	return buf
}

func decodeSegHeader(buf []byte) (seq uint64, base LSN, ok bool) {
	if len(buf) < segHeaderSize {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint64(buf) != segMagic {
		return 0, 0, false
	}
	if crc32.Checksum(buf[:24], crcTable) != binary.LittleEndian.Uint32(buf[24:]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(buf[8:]), LSN(binary.LittleEndian.Uint64(buf[16:])), true
}

// --- MemSegmentDir ------------------------------------------------------

// MemSegmentDir is an in-memory SegmentDir for tests and the
// no-durable-medium profiles. It outlives any Log opened over it, so
// crash tests can "reopen" the same directory after abandoning a
// database.
type MemSegmentDir struct {
	mu       sync.Mutex
	segs     map[uint64]*storage.MemDevice
	manifest *storage.MemDevice
	removed  uint64
}

// NewMemSegmentDir creates an empty in-memory segment directory.
func NewMemSegmentDir() *MemSegmentDir {
	return &MemSegmentDir{segs: make(map[uint64]*storage.MemDevice)}
}

// OpenSegment implements SegmentDir.
func (d *MemSegmentDir) OpenSegment(seq uint64) (storage.Device, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if dev, ok := d.segs[seq]; ok {
		return dev, nil
	}
	dev := storage.NewMemDevice()
	d.segs[seq] = dev
	return dev, nil
}

// RemoveSegment implements SegmentDir.
func (d *MemSegmentDir) RemoveSegment(seq uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.segs[seq]; ok {
		delete(d.segs, seq)
		d.removed++
	}
	return nil
}

// ListSegments implements SegmentDir.
func (d *MemSegmentDir) ListSegments() ([]uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint64, 0, len(d.segs))
	for seq := range d.segs {
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// OpenManifest implements SegmentDir.
func (d *MemSegmentDir) OpenManifest() (storage.Device, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.manifest == nil {
		d.manifest = storage.NewMemDevice()
	}
	return d.manifest, nil
}

// Sync implements SegmentDir (no-op for memory).
func (d *MemSegmentDir) Sync() error { return nil }

// SegmentCount returns the number of live segments (test diagnostics).
func (d *MemSegmentDir) SegmentCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.segs)
}

// Removed returns how many segments truncation has deleted.
func (d *MemSegmentDir) Removed() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.removed
}

// --- FileSegmentDir -----------------------------------------------------

// FileSegmentDir is a SegmentDir over an OS directory: segments are
// files named wal.NNNNNN, the manifest is wal.manifest.
type FileSegmentDir struct {
	path string
}

// NewFileSegmentDir opens (creating if needed) a segment directory.
func NewFileSegmentDir(path string) (*FileSegmentDir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating segment dir %s: %w", path, err)
	}
	return &FileSegmentDir{path: path}, nil
}

func (d *FileSegmentDir) segPath(seq uint64) string {
	return filepath.Join(d.path, fmt.Sprintf("wal.%06d", seq))
}

// OpenSegment implements SegmentDir.
func (d *FileSegmentDir) OpenSegment(seq uint64) (storage.Device, error) {
	return storage.OpenFileDevice(d.segPath(seq))
}

// RemoveSegment implements SegmentDir.
func (d *FileSegmentDir) RemoveSegment(seq uint64) error {
	if err := os.Remove(d.segPath(seq)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("wal: removing segment %d: %w", seq, err)
	}
	return nil
}

// ListSegments implements SegmentDir.
func (d *FileSegmentDir) ListSegments() ([]uint64, error) {
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal.") || name == "wal.manifest" {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimPrefix(name, "wal."), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// OpenManifest implements SegmentDir.
func (d *FileSegmentDir) OpenManifest() (storage.Device, error) {
	return storage.OpenFileDevice(filepath.Join(d.path, "wal.manifest"))
}

// Sync implements SegmentDir by fsyncing the directory, making segment
// creation and removal durable.
func (d *FileSegmentDir) Sync() error {
	f, err := os.Open(d.path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
