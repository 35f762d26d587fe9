package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"
)

// op is one pre-generated request: a class and a key id (KV), row id or
// cust value (SQL).
type op struct {
	cl class
	k  uint32
}

// spread is coprime to every workload's key count; multiplying zipf ranks
// by it scatters the hot keys over the B+tree's leaves.
const spread = 7919

// genStreams builds one op stream per client from the seed. Write targets
// are partitioned by client (key id mod clients), so each key has one
// writer and its versions are totally ordered for the oracle.
func genStreams(sp *spec, seed int64, n int) [][]op {
	streams := make([][]op, sp.clients)
	for c := range streams {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		var zipf *rand.Zipf
		if sp.zipf {
			zipf = rand.NewZipf(rng, 1.1, 1, uint64(sp.keys-1))
		}
		nextRow := sp.keys // SQL: ids below nextRow exist when the op runs
		s := make([]op, n)
		for i := range s {
			cl := pickClass(rng, &sp.mix)
			var k int
			switch {
			case sp.kind == kindSQL && cl == clWrite:
				k = nextRow
				nextRow++
			case sp.kind == kindSQL && cl == clScan:
				k = rng.Intn(sqlCusts)
			case sp.kind == kindSQL:
				k = rng.Intn(nextRow)
			default:
				if zipf != nil {
					k = int(zipf.Uint64()) * spread % sp.keys
				} else {
					k = rng.Intn(sp.keys)
				}
				if cl == clScan && k > sp.keys-scanLen {
					k = sp.keys - scanLen
				}
				if cl == clWrite {
					if k = k - k%sp.clients + c; k >= sp.keys {
						k -= sp.clients
					}
				}
			}
			s[i] = op{cl, uint32(k)}
		}
		streams[c] = s
	}
	return streams
}

func pickClass(rng *rand.Rand, mix *[nClasses]int) class {
	r := rng.Intn(100)
	for cl, pct := range mix {
		if r -= pct; r < 0 {
			return class(cl)
		}
	}
	return clRead
}

// outcome is the oracle's verdict on one completed op.
type outcome struct {
	failed   bool // error or wrong result
	conflict bool // failed as a deadlock victim
	stale    bool // follower snapshot older than the last ack (not a failure)
	bytes    int  // user bytes acknowledged (writes)
}

// work executes ops against a bed and checks every result against an
// in-bench model.
type work interface {
	load(ctx context.Context, b bed) (importDur time.Duration, err error)
	do(ctx context.Context, b bed, o op) (start, end time.Time, oc outcome)
	// crashOp returns the i'th write of a kill+recover cycle.
	crashOp(rng *rand.Rand) op
	// verify reads back what o wrote and requires exactly that.
	verify(ctx context.Context, b bed, o op) bool
	liveBytes() int64
}

// --- KV and cluster ---------------------------------------------------------

var filler = []byte(strings.Repeat("sbdms-bench-value-", 8))

// kvWork's model: values carry (key id, per-key sequence). issued is the
// highest sequence handed to a Put, acked the highest acknowledged. A read
// must return the key's own id and a sequence in [acked before the read,
// issued after it]; with one client that is exactly the last acked value.
type kvWork struct {
	sp       *spec
	keys     []string
	issued   []atomic.Uint32
	acked    []atomic.Uint32
	follower bool // snapshot reads may lag (served by a follower)
	tr       *tracer
}

func newKVWork(sp *spec, tr *tracer) *kvWork {
	w := &kvWork{sp: sp, tr: tr, follower: sp.kind == kindCluster,
		keys: make([]string, sp.keys), issued: make([]atomic.Uint32, sp.keys), acked: make([]atomic.Uint32, sp.keys)}
	for i := range w.keys {
		w.keys[i] = fmt.Sprintf("k%08d", i)
	}
	return w
}

func kvValue(k, seq uint32) []byte {
	v := make([]byte, valueBytes)
	binary.LittleEndian.PutUint32(v[0:], k)
	binary.LittleEndian.PutUint32(v[4:], seq)
	copy(v[8:], filler)
	return v
}

func (w *kvWork) load(ctx context.Context, b bed) (time.Duration, error) {
	vals := make([][]byte, len(w.keys))
	for i := range vals {
		vals[i] = kvValue(uint32(i), 0)
	}
	t0 := time.Now()
	err := b.kv().Import(ctx, w.keys, vals)
	return time.Since(t0), err
}

// seqOf decodes a value and checks it belongs to key k.
func seqOf(v []byte, k uint32) (uint32, bool) {
	if len(v) != valueBytes || binary.LittleEndian.Uint32(v) != k {
		return 0, false
	}
	return binary.LittleEndian.Uint32(v[4:]), true
}

func (w *kvWork) do(ctx context.Context, b bed, o op) (start, end time.Time, oc outcome) {
	api, k, key := b.kv(), o.k, w.keys[o.k]
	lo := w.acked[k].Load()
	var seq uint32
	var val []byte
	if o.cl == clWrite {
		seq = w.issued[k].Add(1)
		val = kvValue(k, seq)
	}
	sp := int32(-1)
	if w.tr != nil {
		sp = w.tr.begin("op", classNames[o.cl])
	}
	var got []byte
	var keys []string
	var err error
	start = time.Now()
	switch o.cl {
	case clRead:
		got, err = api.Get(ctx, key)
	case clSnap:
		got, err = api.GetSnapshot(ctx, key)
	case clScan:
		keys, err = api.ScanKeysSnapshot(ctx, key, scanLen)
	case clWrite:
		err = api.Put(ctx, key, val)
	}
	end = time.Now()
	if sp >= 0 {
		w.tr.end(sp)
	}

	switch o.cl {
	case clRead, clSnap:
		got, ok := seqOf(got, k)
		switch {
		case err != nil || !ok || got > w.issued[k].Load():
			oc.failed = true
		case got < lo && o.cl == clSnap && w.follower:
			oc.stale = true
		case got < lo:
			oc.failed = true
		}
	case clScan:
		oc.failed = err != nil || len(keys) != scanLen
		for i := 0; !oc.failed && i < scanLen; i++ {
			oc.failed = keys[i] != w.keys[int(k)+i]
		}
	case clWrite:
		if err != nil {
			oc.failed = true
			oc.conflict = strings.Contains(err.Error(), "transaction conflict")
		} else {
			w.acked[k].Store(seq)
			oc.bytes = len(key) + len(val)
		}
	}
	return start, end, oc
}

func (w *kvWork) crashOp(rng *rand.Rand) op {
	return op{clWrite, uint32(rng.Intn(w.sp.keys))}
}

func (w *kvWork) verify(ctx context.Context, b bed, o op) bool {
	v, err := b.kv().Get(ctx, w.keys[o.k])
	seq, ok := seqOf(v, o.k)
	return err == nil && ok && seq == w.acked[o.k].Load()
}

func (w *kvWork) liveBytes() int64 {
	return int64(len(w.keys)) * int64(len(w.keys[0])+valueBytes)
}

// awaitFollowers polls until a snapshot read of every listed key returns
// its last acknowledged value, i.e. each shard's follower has applied
// everything acknowledged so far.
func (w *kvWork) awaitFollowers(ctx context.Context, b bed, ids []uint32) error {
	deadline := time.Now().Add(20 * time.Second)
	for _, k := range ids {
		for {
			v, err := b.kv().GetSnapshot(ctx, w.keys[k])
			if seq, ok := seqOf(v, k); err == nil && ok && seq >= w.acked[k].Load() {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("follower never served key %s (last error: %v)", w.keys[k], err)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// --- SQL --------------------------------------------------------------------

// sqlWork's model mirrors table orders(id, cust, amount, note): amount per
// id, and row count and amount sum per cust for the aggregate.
type sqlWork struct {
	sp        *spec
	amount    []int64
	custCount [sqlCusts]int64
	custSum   [sqlCusts]int64
	live      int64 // literal bytes of every present row
	tr        *tracer
}

func newSQLWork(sp *spec, tr *tracer) *sqlWork { return &sqlWork{sp: sp, tr: tr} }

func sqlNote(id int) string { return fmt.Sprintf("note-%08d-%s", id, filler[:48]) }

// rowLiteral is the row as the user wrote it; its length is the user bytes
// of an INSERT.
func rowLiteral(id int, amount int64) string {
	return fmt.Sprintf("(%d, %d, %d, '%s')", id, id%sqlCusts, amount, sqlNote(id))
}

func (w *sqlWork) insertSQL(id int) (string, int64) {
	amount := int64(id)*3 + 1
	return "INSERT INTO orders VALUES " + rowLiteral(id, amount), amount
}

func (w *sqlWork) inserted(id int, amount int64) {
	for len(w.amount) <= id {
		w.amount = append(w.amount, -1)
	}
	w.amount[id] = amount
	w.custCount[id%sqlCusts]++
	w.custSum[id%sqlCusts] += amount
	w.live += int64(len(rowLiteral(id, amount)))
}

func (w *sqlWork) load(ctx context.Context, b bed) (time.Duration, error) {
	stmts := []string{
		"CREATE TABLE orders (id INT, cust INT, amount INT, note TEXT)",
		"CREATE INDEX orders_id ON orders (id)",
		"CREATE INDEX orders_cust ON orders (cust)",
	}
	for _, q := range stmts {
		if _, err := b.exec(ctx, q); err != nil {
			return 0, fmt.Errorf("%s: %w", q, err)
		}
	}
	t0 := time.Now()
	for id := 0; id < w.sp.keys; id++ {
		if id%1000 == 0 {
			if _, err := b.exec(ctx, "BEGIN"); err != nil {
				return 0, err
			}
		}
		q, amount := w.insertSQL(id)
		if _, err := b.exec(ctx, q); err != nil {
			return 0, fmt.Errorf("loading row %d: %w", id, err)
		}
		w.inserted(id, amount)
		if id%1000 == 999 || id == w.sp.keys-1 {
			if _, err := b.exec(ctx, "COMMIT"); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0), nil
}

func (w *sqlWork) selectOK(rows [][]cell, err error, id int) bool {
	return err == nil && id < len(w.amount) && len(rows) == 1 && len(rows[0]) == 2 &&
		rows[0][0].i == w.amount[id] && rows[0][1].s == sqlNote(id)
}

func (w *sqlWork) do(ctx context.Context, b bed, o op) (start, end time.Time, oc outcome) {
	id := int(o.k)
	if (o.cl == clRead || o.cl == clUpdate) && (id >= len(w.amount) || w.amount[id] < 0) {
		// The row's INSERT failed earlier; it was counted then.
		now := time.Now()
		return now, now, outcome{failed: true}
	}
	var q string
	var amount int64
	switch o.cl {
	case clRead:
		q = fmt.Sprintf("SELECT amount, note FROM orders WHERE id = %d", id)
	case clScan:
		q = fmt.Sprintf("SELECT COUNT(*), SUM(amount) FROM orders WHERE cust = %d", id)
	case clWrite:
		q, amount = w.insertSQL(id)
	case clUpdate:
		amount = w.amount[id] + 1 + int64(id%5)
		q = fmt.Sprintf("UPDATE orders SET amount = %d WHERE id = %d", amount, id)
	}
	sp := int32(-1)
	if w.tr != nil {
		sp = w.tr.begin("op", classNames[o.cl])
	}
	start = time.Now()
	rows, err := b.exec(ctx, q)
	end = time.Now()
	if sp >= 0 {
		w.tr.end(sp)
	}
	switch o.cl {
	case clRead:
		oc.failed = !w.selectOK(rows, err, id)
	case clScan:
		oc.failed = err != nil || len(rows) != 1 || len(rows[0]) != 2 ||
			rows[0][0].i != w.custCount[id] || rows[0][1].i != w.custSum[id]
	case clWrite:
		if oc.failed = err != nil; !oc.failed {
			w.inserted(id, amount)
			oc.bytes = len(q) - len("INSERT INTO orders VALUES ")
		}
	case clUpdate:
		if oc.failed = err != nil; !oc.failed {
			w.live += int64(len(rowLiteral(id, amount)) - len(rowLiteral(id, w.amount[id])))
			w.custSum[id%sqlCusts] += amount - w.amount[id]
			w.amount[id] = amount
			oc.bytes = len(q) - len("UPDATE orders SET ")
		}
	}
	if err != nil {
		oc.conflict = strings.Contains(err.Error(), "transaction conflict")
	}
	return start, end, oc
}

func (w *sqlWork) crashOp(*rand.Rand) op { return op{clWrite, uint32(len(w.amount))} }

func (w *sqlWork) verify(ctx context.Context, b bed, o op) bool {
	rows, err := b.exec(ctx, fmt.Sprintf("SELECT amount, note FROM orders WHERE id = %d", o.k))
	return w.selectOK(rows, err, int(o.k))
}

func (w *sqlWork) liveBytes() int64 { return w.live }
