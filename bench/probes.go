package main

// probes.go times single layers from outside: each probe builds a
// standalone instance of one internal package, calls its public functions
// with the workloads' key and value shapes, and reports the mean cost of a
// call. The probes do not depend on the workload or the seed.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/netbind"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// perCall runs fn n times and returns the mean nanoseconds per call.
func perCall(n int, fn func(i int) error) (float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / float64(n), nil
}

func probeKey(i int) []byte { return access.EncodeKey(access.NewString(fmt.Sprintf("k%08d", i))) }

func probeRID(i int) access.RID {
	return access.RID{Page: storage.PageID(i/40 + 1), Slot: uint16(i % 40)}
}

func memPool(frames int) (*buffer.Manager, error) {
	d, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		return nil, err
	}
	return buffer.New(d, frames, buffer.NewPolicy("")), nil
}

// runProbes fills m with every probe metric.
func runProbes(ctx context.Context, cfg *config, m map[string]float64) error {
	scale := 2 // the call counts below, halved: the probes take 8 s of a traced run, not 15
	if cfg.quick {
		scale = 50
	}
	dir, err := os.MkdirTemp(cfg.dir, "probes-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, p := range []func(context.Context, string, int, map[string]float64) error{
		probeNetbind, probeCore, probeSQL, probeTxn, probeIndex, probeHeap, probeBuffer, probeWAL, probeDisk,
	} {
		if err := p(ctx, dir, scale, m); err != nil {
			return err
		}
	}
	return nil
}

func echoService(name, iface string) *core.BaseService {
	s := core.NewService(name, &core.Contract{
		Interface:  iface,
		Operations: []core.OpSpec{{Name: "echo", In: "[]byte", Out: "[]byte", Semantic: "probe.echo"}},
	})
	s.Handle("echo", func(_ context.Context, req any) (any, error) { return req, nil })
	return s
}

// probeNetbind: echo round trips over loopback TCP with a small and a
// page-sized payload.
func probeNetbind(ctx context.Context, _ string, scale int, m map[string]float64) error {
	reg := core.NewRegistry(nil)
	svc := echoService("echo", "bench.Echo")
	if err := svc.Start(ctx); err != nil {
		return err
	}
	if err := reg.RegisterService(svc, nil); err != nil {
		return err
	}
	srv, err := netbind.Serve(reg, "")
	if err != nil {
		return err
	}
	defer srv.Close()
	cl := netbind.NewClient(srv.Addr())
	defer cl.Close()
	for _, c := range []struct {
		name string
		size int
	}{{"netbind.rtt_us", 128}, {"netbind.rtt_4k_us", 4096}} {
		payload := make([]byte, c.size)
		ns, err := perCall(10000/scale, func(int) error {
			_, err := cl.Call(ctx, "echo", "echo", payload)
			return err
		})
		if err != nil {
			return err
		}
		m[c.name] = ns / 1e3
	}
	return nil
}

// probeCore: one invocation of an echo service through a kernel Ref, the
// late-bound call every kernel hop makes.
func probeCore(ctx context.Context, _ string, scale int, m map[string]float64) error {
	k := core.NewKernel()
	svc := echoService("echo", "bench.Echo")
	if err := svc.Start(ctx); err != nil {
		return err
	}
	if err := k.Registry().RegisterService(svc, nil); err != nil {
		return err
	}
	ref := k.Ref("bench.Echo", nil)
	payload := []byte("x")
	ns, err := perCall(500000/scale, func(int) error {
		_, err := ref.Invoke(ctx, "echo", payload)
		return err
	})
	m["core.ref_invoke_ns"] = ns
	return err
}

// probeSQL: parsing the four sql_mixed statement templates.
func probeSQL(_ context.Context, _ string, scale int, m map[string]float64) error {
	w := &sqlWork{}
	insert, _ := w.insertSQL(12345)
	stmts := []string{
		"SELECT amount, note FROM orders WHERE id = 12345",
		"SELECT COUNT(*), SUM(amount) FROM orders WHERE cust = 77",
		insert,
		"UPDATE orders SET amount = 4242 WHERE id = 12345",
	}
	ns, err := perCall(100000/scale, func(i int) error {
		_, err := sql.Parse(stmts[i%len(stmts)])
		return err
	})
	m["sql.parse_us"] = ns / 1e3
	return err
}

// probeTxn: uncontended lock acquire+release in both modes, and an empty
// transaction's Begin+Commit over an in-memory WAL.
func probeTxn(ctx context.Context, _ string, scale int, m map[string]float64) error {
	lm := txn.NewLockManager()
	for _, c := range []struct {
		name string
		mode txn.LockMode
	}{{"txn.lock_pair_s_ns", txn.Shared}, {"txn.lock_pair_x_ns", txn.Exclusive}} {
		ns, err := perCall(500000/scale, func(i int) error {
			res := "kv/k00000042"
			if err := lm.Acquire(ctx, 1, res, c.mode); err != nil {
				return err
			}
			return lm.Release(1, res)
		})
		if err != nil {
			return err
		}
		m[c.name] = ns
	}
	l, err := wal.OpenDir(wal.NewMemSegmentDir(), 0)
	if err != nil {
		return err
	}
	pool, err := memPool(64)
	if err != nil {
		return err
	}
	mgr := txn.NewManager(l, pool)
	ns, err := perCall(100000/scale, func(int) error {
		t, err := mgr.Begin()
		if err != nil {
			return err
		}
		return mgr.Commit(t)
	})
	m["txn.commit_ns"] = ns
	return err
}

// probeIndex: B+tree insert, point search and 50-entry range at the hot
// workloads' key count, and search at read_cold's key count.
func probeIndex(_ context.Context, _ string, scale int, m map[string]float64) error {
	build := func(n int) (*index.BTree, float64, error) {
		pool, err := memPool(8192)
		if err != nil {
			return nil, 0, err
		}
		t, _, err := index.Create(pool, true)
		if err != nil {
			return nil, 0, err
		}
		ns, err := perCall(n, func(i int) error {
			j := i * spread % n
			return t.Insert(probeKey(j), probeRID(j))
		})
		return t, ns, err
	}
	hot, cold := specByName("read_hot").keys/scale, specByName("read_cold").keys/scale
	t, insertNs, err := build(hot)
	if err != nil {
		return err
	}
	m["index.insert_ns"] = insertNs
	rng := rand.New(rand.NewSource(1))
	if m["index.search_ns"], err = perCall(200000/scale, func(int) error {
		_, err := t.Search(probeKey(rng.Intn(hot)))
		return err
	}); err != nil {
		return err
	}
	if m["index.range50_ns"], err = perCall(20000/scale, func(int) error {
		lo := rng.Intn(hot - scanLen)
		return t.Range(probeKey(lo), probeKey(lo+scanLen-1), func([]byte, access.RID) error { return nil })
	}); err != nil {
		return err
	}
	h, err := t.Height()
	if err != nil {
		return err
	}
	m["index.height"] = float64(h)

	t, _, err = build(cold)
	if err != nil {
		return err
	}
	if m["index.search_cold_ns"], err = perCall(200000/scale, func(int) error {
		_, err := t.Search(probeKey(rng.Intn(cold)))
		return err
	}); err != nil {
		return err
	}
	if h, err = t.Height(); err != nil {
		return err
	}
	m["index.height_cold"] = float64(h)
	return nil
}

// probeHeap: heap file insert and get of a KV-sized record.
func probeHeap(_ context.Context, _ string, scale int, m map[string]float64) error {
	pool, err := memPool(8192)
	if err != nil {
		return err
	}
	fm, err := storage.OpenFileManager(pool)
	if err != nil {
		return err
	}
	h, err := access.OpenHeap("probe", fm, pool)
	if err != nil {
		return err
	}
	n := 100000 / scale
	rec := make([]byte, valueBytes+16)
	rids := make([]access.RID, n)
	if m["access.heap_insert_ns"], err = perCall(n, func(i int) error {
		rids[i], err = h.Insert(nil, rec)
		return err
	}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	m["access.heap_get_ns"], err = perCall(200000/scale, func(int) error {
		_, err := h.Get(rids[rng.Intn(n)])
		return err
	})
	return err
}

// probeBuffer: pin+unpin of a resident page, and of a page that must be
// read from an in-memory device after evicting another.
func probeBuffer(_ context.Context, _ string, scale int, m map[string]float64) error {
	pool, err := memPool(64)
	if err != nil {
		return err
	}
	const pages = 1024
	ids := make([]storage.PageID, pages)
	for i := range ids {
		f, err := pool.NewPage(storage.PageTypeHeap)
		if err != nil {
			return err
		}
		ids[i] = f.ID
		if err := pool.Unpin(f.ID, true); err != nil {
			return err
		}
	}
	pin := func(id storage.PageID) error {
		if _, err := pool.Pin(id); err != nil {
			return err
		}
		return pool.Unpin(id, false)
	}
	if err := pin(ids[0]); err != nil {
		return err
	}
	if m["buffer.pin_hit_ns"], err = perCall(1000000/scale, func(int) error { return pin(ids[0]) }); err != nil {
		return err
	}
	// Sequential cycling over 16x the pool: every pin misses.
	m["buffer.pin_miss_ns"], err = perCall(200000/scale, func(i int) error { return pin(ids[i%pages]) })
	return err
}

// probeWAL: appending a Put-sized record to an in-memory log, and
// append+flush (one fsync) to a file-backed one.
func probeWAL(_ context.Context, dir string, scale int, m map[string]float64) error {
	rec := func() *wal.Record {
		return &wal.Record{Txn: 1, Type: wal.RecUpdate, PageID: 7, Offset: 128,
			Before: make([]byte, valueBytes+16), After: make([]byte, valueBytes+16)}
	}
	l, err := wal.OpenDir(wal.NewMemSegmentDir(), 0)
	if err != nil {
		return err
	}
	if m["wal.append_ns"], err = perCall(200000/scale, func(int) error {
		_, err := l.Append(rec())
		return err
	}); err != nil {
		return err
	}
	segs, err := wal.NewFileSegmentDir(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	if l, err = wal.OpenDir(segs, 0); err != nil {
		return err
	}
	ns, err := perCall(2000/scale, func(int) error {
		lsn, err := l.Append(rec())
		if err != nil {
			return err
		}
		return l.Flush(lsn + 1)
	})
	m["wal.append_flush_us"] = ns / 1e3
	return err
}

// probeDisk: DiskManager page reads and writes on a file device.
func probeDisk(_ context.Context, dir string, scale int, m map[string]float64) error {
	dev, err := storage.OpenFileDevice(filepath.Join(dir, "probe.db"))
	if err != nil {
		return err
	}
	d, err := storage.OpenDisk(dev)
	if err != nil {
		dev.Close()
		return err
	}
	defer d.Close()
	const pages = 4096
	ids := make([]storage.PageID, pages)
	buf := make([]byte, storage.PageSize)
	for i := range ids {
		if ids[i], err = d.Allocate(); err != nil {
			return err
		}
		storage.WrapPage(ids[i], buf).SetType(storage.PageTypeHeap)
		if err := d.WritePage(ids[i], buf); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(1))
	if m["storage.readpage_ns"], err = perCall(100000/scale, func(int) error {
		return d.ReadPage(ids[rng.Intn(pages)], buf)
	}); err != nil {
		return err
	}
	m["storage.writepage_ns"], err = perCall(50000/scale, func(int) error {
		id := ids[rng.Intn(pages)]
		return d.WritePage(id, buf)
	})
	return err
}
