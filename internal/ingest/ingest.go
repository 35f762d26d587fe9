// Package ingest prepares bulk-load batches for the KV engine's import
// fast path: validation (typed, per-key errors in the option-matrix
// style), sorting, and duplicate rejection happen here, BEFORE any page
// is written, so a bad batch costs no I/O and leaves no garbage pages.
// The engine-side orchestration (heap packing, bottom-up tree build,
// atomic root install) stays with the KV core — this package owns the
// pure batch logic so it can be tested without an engine.
package ingest

import (
	"errors"
	"fmt"
	"sort"
)

// Batch preparation errors. They surface verbatim from DB.Import, so
// callers can classify rejections without string matching (except
// across a network binding, where gob flattens them to strings).
var (
	// ErrMismatch is returned when keys and values differ in length.
	ErrMismatch = errors.New("ingest: batch keys/values length mismatch")
	// ErrDuplicate is returned when the batch contains the same key
	// twice: an import is one atomic write per key, so "last one wins"
	// would silently drop data the caller thought it loaded.
	ErrDuplicate = errors.New("ingest: duplicate key in batch")
	// ErrKeyTooLarge is returned for keys exceeding the index bound.
	ErrKeyTooLarge = errors.New("ingest: key too large")
	// ErrValueTooLarge is returned for records exceeding one heap page.
	ErrValueTooLarge = errors.New("ingest: value too large")
)

// Batch is a validated, key-sorted bulk-load input: Keys are strictly
// increasing and Vals pairs with them positionally.
type Batch struct {
	Keys []string
	Vals [][]byte
}

// Prepare validates (keys, vals) into a sorted Batch. Unsorted input is
// accepted and sorted here; duplicate keys are rejected with
// ErrDuplicate. check, when non-nil, runs per pair with engine size
// limits (ErrKeyTooLarge / ErrValueTooLarge wrapped around the key) —
// it runs in sorted order, so the reported key is the smallest
// offender. The input slices are not modified.
func Prepare(keys []string, vals [][]byte, check func(k string, v []byte) error) (*Batch, error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("%w: %d keys, %d values", ErrMismatch, len(keys), len(vals))
	}
	if len(keys) == 0 {
		return &Batch{}, nil
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	b := &Batch{
		Keys: make([]string, len(keys)),
		Vals: make([][]byte, len(keys)),
	}
	for i, src := range order {
		b.Keys[i] = keys[src]
		b.Vals[i] = vals[src]
		if i > 0 && b.Keys[i-1] == b.Keys[i] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicate, b.Keys[i])
		}
		if check != nil {
			if err := check(b.Keys[i], b.Vals[i]); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}
