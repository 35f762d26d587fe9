package wal

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzCheckpointMeta feeds the same bytes to the two decoders a
// checkpoint's durability rests on: the log manifest (which names the
// checkpoint and the recovery-begin LSN) and the checkpoint record's
// payload (the ATT and DPT recovery starts from). Neither may panic,
// every error must be ErrCorrupt, an accepted manifest must re-encode
// to the same three LSNs, and an accepted payload must survive an
// EncodeCheckpoint/DecodeCheckpoint round trip unchanged.
func FuzzCheckpointMeta(f *testing.F) {
	f.Add(encodeManifest(manifest{}))
	f.Add(encodeManifest(manifest{checkpoint: 4096, recoveryBegin: 1024, fence: 2048}))
	f.Add(EncodeCheckpoint(CheckpointData{}))
	f.Add(EncodeCheckpoint(CheckpointData{
		Fence: 77,
		ATT:   []CkptTxn{{ID: 5, First: 60, Last: 70}, {ID: 6, First: 65, Last: 76}},
		DPT:   []CkptPage{{Page: 3, RecLSN: 61}, {Page: 9, RecLSN: 66}},
		Clock: 9,
	}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, ok, err := decodeManifest(buf)
		switch {
		case err != nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("manifest: unexpected error class: %v", err)
			}
		case ok:
			again, ok2, err2 := decodeManifest(encodeManifest(m))
			if err2 != nil || !ok2 || again != m {
				t.Fatalf("manifest %+v re-decodes to %+v (ok %v, err %v)", m, again, ok2, err2)
			}
		}

		d, err := DecodeCheckpoint(buf)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("checkpoint: unexpected error class: %v", err)
			}
			return
		}
		again, err := DecodeCheckpoint(EncodeCheckpoint(d))
		if err != nil {
			t.Fatalf("accepted checkpoint does not decode after re-encoding: %v", err)
		}
		if !reflect.DeepEqual(again, d) {
			t.Fatalf("checkpoint %+v re-decodes to %+v", d, again)
		}
	})
}
