package ingest

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func TestPrepare(t *testing.T) {
	errCheck := errors.New("check failed")
	sizeCheck := func(k string, v []byte) error {
		if len(k) > 4 {
			return fmt.Errorf("%w: %q", ErrKeyTooLarge, k)
		}
		if len(v) > 4 {
			return fmt.Errorf("%w: key %q", ErrValueTooLarge, k)
		}
		return nil
	}
	for _, tc := range []struct {
		name     string
		keys     []string
		vals     [][]byte
		check    func(string, []byte) error
		wantErr  error
		wantKeys []string
		wantVals []string
	}{
		{name: "empty"},
		{
			name:     "unsorted input comes out sorted with its values",
			keys:     []string{"c", "a", "b"},
			vals:     [][]byte{[]byte("3"), []byte("1"), []byte("2")},
			wantKeys: []string{"a", "b", "c"},
			wantVals: []string{"1", "2", "3"},
		},
		{
			name:    "mismatched lengths",
			keys:    []string{"a", "b"},
			vals:    [][]byte{[]byte("1")},
			wantErr: ErrMismatch,
		},
		{
			name:    "duplicate key",
			keys:    []string{"b", "a", "b"},
			vals:    [][]byte{{1}, {2}, {3}},
			wantErr: ErrDuplicate,
		},
		{
			name:    "oversized key",
			keys:    []string{"ok", "toolong"},
			vals:    [][]byte{{1}, {2}},
			check:   sizeCheck,
			wantErr: ErrKeyTooLarge,
		},
		{
			name:    "oversized value",
			keys:    []string{"ok", "k"},
			vals:    [][]byte{{1}, []byte("toolong")},
			check:   sizeCheck,
			wantErr: ErrValueTooLarge,
		},
		{
			name:    "check error passes through unwrapped",
			keys:    []string{"a"},
			vals:    [][]byte{{1}},
			check:   func(string, []byte) error { return errCheck },
			wantErr: errCheck,
		},
		{
			name:     "check sees every pair that passes",
			keys:     []string{"b", "a"},
			vals:     [][]byte{{2}, {1}},
			check:    sizeCheck,
			wantKeys: []string{"a", "b"},
			wantVals: []string{"\x01", "\x02"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inKeys := append([]string(nil), tc.keys...)
			b, err := Prepare(tc.keys, tc.vals, tc.check)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr != nil {
				if b != nil {
					t.Fatalf("rejected batch returned %+v", b)
				}
				return
			}
			if !reflect.DeepEqual(tc.keys, inKeys) {
				t.Fatalf("input keys reordered: %v", tc.keys)
			}
			var gotVals []string
			for _, v := range b.Vals {
				gotVals = append(gotVals, string(v))
			}
			if !reflect.DeepEqual(b.Keys, tc.wantKeys) || !reflect.DeepEqual(gotVals, tc.wantVals) {
				t.Fatalf("batch = %q / %q, want %q / %q", b.Keys, gotVals, tc.wantKeys, tc.wantVals)
			}
		})
	}
}

// The check callback runs in sorted order, so the reported offender is
// the smallest one whatever the arrival order.
func TestPrepareReportsSmallestOffender(t *testing.T) {
	var seen []string
	_, err := Prepare([]string{"z", "m", "a"}, [][]byte{{1}, {2}, {3}}, func(k string, _ []byte) error {
		seen = append(seen, k)
		if k != "a" {
			return fmt.Errorf("%w: %q", ErrKeyTooLarge, k)
		}
		return nil
	})
	if !errors.Is(err, ErrKeyTooLarge) || !reflect.DeepEqual(seen, []string{"a", "m"}) {
		t.Fatalf("err = %v after checking %v, want ErrKeyTooLarge at \"m\"", err, seen)
	}
}
