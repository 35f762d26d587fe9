package storage

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInjectedCrash is returned by a FaultDevice for every access after
// its crash point has been reached.
var ErrInjectedCrash = errors.New("storage: injected crash")

// FaultDevice wraps a Device with crash-style fault injection: after a
// configured number of further writes the device "dies" — the crashing
// write is discarded (or torn, applying only a prefix), and every
// subsequent read and write fails with ErrInjectedCrash. The inner
// device then holds exactly the bytes a real disk would hold after a
// kill -9 at that write-back point, so tests can reopen it and drive
// recovery. It is the reusable crash-injection harness behind the
// crash-recovery suite.
type FaultDevice struct {
	mu      sync.Mutex
	inner   Device
	writes  uint64 // total WriteAt calls observed
	arm     int64  // writes still allowed; -1 = disarmed
	tear    int    // bytes of the crashing write to apply (0 = drop whole)
	crashed bool
	dropped uint64 // writes discarded after the crash
}

// NewFaultDevice wraps inner with fault injection, initially disarmed.
func NewFaultDevice(inner Device) *FaultDevice {
	return &FaultDevice{inner: inner, arm: -1}
}

// CrashAfterWrites arms the device: n more writes succeed, then the
// device crashes. With tearBytes > 0 the crashing write is torn — its
// first tearBytes bytes reach the inner device (a partial sector
// flush); with tearBytes == 0 it is dropped entirely.
func (d *FaultDevice) CrashAfterWrites(n int, tearBytes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.arm = int64(n)
	d.tear = tearBytes
}

// Crashed reports whether the crash point has been reached.
func (d *FaultDevice) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// Writes returns the number of WriteAt calls observed before the crash.
func (d *FaultDevice) Writes() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

// Dropped returns the number of writes discarded at or after the crash.
func (d *FaultDevice) Dropped() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dropped
}

// ReadAt implements io.ReaderAt; a crashed device fails every read.
func (d *FaultDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	if d.crashed {
		d.mu.Unlock()
		return 0, ErrInjectedCrash
	}
	d.mu.Unlock()
	return d.inner.ReadAt(p, off)
}

// WriteAt implements io.WriterAt, counting writes and triggering the
// armed crash.
func (d *FaultDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	if d.crashed {
		d.dropped++
		d.mu.Unlock()
		return 0, ErrInjectedCrash
	}
	if d.arm == 0 {
		// This write is the crash point.
		d.crashed = true
		d.dropped++
		tear := d.tear
		d.mu.Unlock()
		if tear > 0 {
			if tear > len(p) {
				tear = len(p)
			}
			if _, err := d.inner.WriteAt(p[:tear], off); err != nil {
				return 0, fmt.Errorf("storage: torn write: %w", err)
			}
		}
		return 0, ErrInjectedCrash
	}
	if d.arm > 0 {
		d.arm--
	}
	d.writes++
	d.mu.Unlock()
	return d.inner.WriteAt(p, off)
}

// Size implements Device.
func (d *FaultDevice) Size() (int64, error) {
	d.mu.Lock()
	if d.crashed {
		d.mu.Unlock()
		return 0, ErrInjectedCrash
	}
	d.mu.Unlock()
	return d.inner.Size()
}

// Truncate implements Device.
func (d *FaultDevice) Truncate(size int64) error {
	d.mu.Lock()
	if d.crashed {
		d.mu.Unlock()
		return ErrInjectedCrash
	}
	d.mu.Unlock()
	return d.inner.Truncate(size)
}

// Sync implements Device; syncing a crashed device fails.
func (d *FaultDevice) Sync() error {
	d.mu.Lock()
	if d.crashed {
		d.mu.Unlock()
		return ErrInjectedCrash
	}
	d.mu.Unlock()
	return d.inner.Sync()
}

// Close implements Device without closing the inner device, so tests
// can reopen it after the simulated crash.
func (d *FaultDevice) Close() error { return nil }
