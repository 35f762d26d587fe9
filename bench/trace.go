package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// span is one timed interval at a layer boundary. Parent and Op are
// indexes into the tracer's span list (-1: none); spans of one request
// share Op, the index of its root "op" span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer was created
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Class  string `json:"class,omitempty"` // root spans only
}

// tracer keeps the spans of a traced pass in memory. The traced pass has
// one client goroutine; spans opened on it nest under the request in
// flight, spans opened by the engine's background goroutines (checkpoint
// flusher) are kept parentless so they are never charged to a request.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	stack  []int32
	client int // OS thread id the traced client is locked to
}

// clientKey marks the traced client's context. Hops and transport calls
// carry the caller's context, so the marker tells a request's own calls from
// the kernel coordinator's background pings through the same bindings.
type clientKey struct{}

func clientContext(ctx context.Context) context.Context {
	return context.WithValue(ctx, clientKey{}, true)
}

func isClient(ctx context.Context) bool { return ctx.Value(clientKey{}) != nil }

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), client: -1}
}

// bindClient marks the calling goroutine as the traced client by locking
// it to its OS thread: the device wrappers have no context to carry a
// marker, but a thread id is one cheap system call and, while the lock is
// held, no other goroutine runs on that thread.
func (t *tracer) bindClient() {
	runtime.LockOSThread()
	t.mu.Lock()
	t.client = syscall.Gettid()
	t.mu.Unlock()
}

// unbindClient releases the thread.
func (t *tracer) unbindClient() { runtime.UnlockOSThread() }

// reset drops every span recorded so far (the set-up's).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.stack = t.spans[:0], t.stack[:0]
	t.mu.Unlock()
}

// begin opens a span on the client goroutine, nested under the innermost
// open span.
func (t *tracer) begin(name, class string) int32 {
	t.mu.Lock()
	id := int32(len(t.spans))
	s := span{Name: name, Parent: -1, Op: -1, Class: class}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1]
		s.Op = t.spans[s.Parent].Op
	} else if name == "op" {
		s.Op = id
	}
	t.stack = append(t.stack, id)
	s.Start = int64(time.Since(t.t0))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// beginAnywhere is begin for code that may run on a background
// goroutine: off the client goroutine the span is recorded parentless.
func (t *tracer) beginAnywhere(name string) int32 {
	if syscall.Gettid() == t.client {
		return t.begin(name, "")
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: -1, Op: -1, Start: int64(time.Since(t.t0))})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	t.mu.Unlock()
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opBreakdown is what the per-layer metrics need from one request's span
// tree: the root, the service hops from outermost to innermost, and the
// time spent in device and transport leaves below it.
type opBreakdown struct {
	class     string
	total     int64
	hops      []int64 // outermost first
	device    int64   // storage.* and wal.* leaves
	transport int64   // cluster.transport spans
	ntransp   int
	selfSum   int64 // sum of every span's self time; equals total when spans nest
}

// breakdowns folds the span list into one opBreakdown per request.
func (t *tracer) breakdowns() []opBreakdown {
	children := make([]int64, len(t.spans)) // time covered by direct children
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			children[p] += t.spans[i].End - t.spans[i].Start
		}
	}
	idx := make(map[int32]int)
	var out []opBreakdown
	for i := range t.spans {
		s := &t.spans[i]
		if s.Op < 0 {
			continue
		}
		d := s.End - s.Start
		if s.Op == int32(i) {
			idx[s.Op] = len(out)
			out = append(out, opBreakdown{class: s.Class, total: d})
		}
		b := &out[idx[s.Op]]
		b.selfSum += d - children[i]
		switch s.Name {
		case "core.hop":
			b.hops = append(b.hops, d)
		case "cluster.transport":
			b.transport += d
			b.ntransp++
		case "op":
		default:
			b.device += d
		}
	}
	return out
}

// leafTotals sums span durations and counts by name over the whole trace
// (requests and background alike).
func (t *tracer) leafTotals() (ns map[string]int64, n map[string]int64) {
	ns, n = make(map[string]int64), make(map[string]int64)
	for i := range t.spans {
		s := &t.spans[i]
		ns[s.Name] += s.End - s.Start
		n[s.Name]++
	}
	return ns, n
}
