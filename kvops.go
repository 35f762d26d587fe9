package sbdms

import (
	"context"
	"encoding/gob"
	"fmt"

	"repro/internal/core"
)

// The KV operation table. Each KV operation is described once, by its
// defKVOp row at the end of this file. Everything else that has to know
// an operation reads the table: KVContract, RecordContract and a cluster
// node's shardkv contract, the handlers behind all three, KVClient, and
// the cluster Router.

// KVClass says what an operation needs from the store it runs on; a
// guarded provider (a cluster node) derives every check from it.
type KVClass uint8

const (
	// KVLeaderRead reads the leader's engine: get and scan at a
	// snapshot taken now, which holds every write the leader has
	// acknowledged, and len from the live count. No read locks a key.
	// Only a shard leader serves it.
	KVLeaderRead KVClass = iota
	// KVWrite mutates: leader only, inside the leader's bootstrap write gate.
	KVWrite
	// KVSnapshotRead reads one MVCC cut the same way: any node holding
	// state serves it, a follower's replica (at its applied frontier,
	// which may trail the leader's acknowledgements) before a leader's
	// engine.
	KVSnapshotRead
)

// KVRoute says how a router maps an operation onto shards.
type KVRoute uint8

const (
	KVByKey   KVRoute = iota // to the shard owning the request's key
	KVGrouped                // batch split by owning shard, all parts under one epoch
	KVFanOut                 // to every shard, replies merged
)

// The request structs, local and remote alike. Epoch is the shard-map
// epoch a routed request was planned under (a node rejects any other);
// 0 is an unguarded local call.
type (
	// KVKeyRequest names one key (get, getSnapshot, delete).
	KVKeyRequest struct {
		Epoch uint64
		Key   string
	}
	// KVPutRequest stores a key/value pair.
	KVPutRequest struct {
		Epoch uint64
		Key   string
		Val   []byte
	}
	// KVBatchRequest stores pairs atomically (putBatch) or bulk-loads
	// them (import).
	KVBatchRequest struct {
		Epoch uint64
		Keys  []string
		Vals  [][]byte
	}
	// KVScanRequest asks for up to N keys from Key onward.
	KVScanRequest struct {
		Epoch uint64
		Key   string
		N     int
	}
	// KVLenRequest counts live keys.
	KVLenRequest struct{ Epoch uint64 }
)

// KVRequest is met by exactly the request structs above; At plans one
// under a shard-map epoch.
type KVRequest[R any] interface {
	At(epoch uint64) R
	epoch() uint64
}

func (r KVKeyRequest) At(e uint64) KVKeyRequest     { r.Epoch = e; return r }
func (r KVPutRequest) At(e uint64) KVPutRequest     { r.Epoch = e; return r }
func (r KVBatchRequest) At(e uint64) KVBatchRequest { r.Epoch = e; return r }
func (r KVScanRequest) At(e uint64) KVScanRequest   { r.Epoch = e; return r }
func (r KVLenRequest) At(e uint64) KVLenRequest     { r.Epoch = e; return r }

func (r KVKeyRequest) epoch() uint64   { return r.Epoch }
func (r KVPutRequest) epoch() uint64   { return r.Epoch }
func (r KVBatchRequest) epoch() uint64 { return r.Epoch }
func (r KVScanRequest) epoch() uint64  { return r.Epoch }
func (r KVLenRequest) epoch() uint64   { return r.Epoch }

// KVBackend is what the operations run against: the native core, a
// further service hop (KVClient) or a follower's ReplicaReader. The
// context bounds a writer's key-lock waits inside the engine (per-key
// 2PL) as well as service hops.
type KVBackend interface {
	Put(ctx context.Context, k string, v []byte) error
	PutBatch(ctx context.Context, keys []string, vals [][]byte) error
	Import(ctx context.Context, keys []string, vals [][]byte) error
	Get(ctx context.Context, k string) ([]byte, error)
	Delete(ctx context.Context, k string) error
	Scan(ctx context.Context, from string, n int) ([]string, error)
	GetSnapshot(ctx context.Context, k string) ([]byte, error)
	ScanKeysSnapshot(ctx context.Context, from string, n int) ([]string, error)
	Len(ctx context.Context) (uint64, error)
}

// KVProvider hands a handler the backend for one invocation. A plain
// backend provides itself; a cluster node first checks epoch, role and
// write gate, all from the operation's class.
type KVProvider interface {
	// Acquire returns the backend for op planned under epoch, or the
	// typed rejection; Release ends what a successful Acquire began.
	Acquire(op *KVOp, epoch uint64) (KVBackend, error)
	Release(op *KVOp)
}

type unguarded struct{ b KVBackend }

func (u unguarded) Acquire(*KVOp, uint64) (KVBackend, error) { return u.b, nil }
func (unguarded) Release(*KVOp)                              {}

// KVOp is one row: what a contract lists about the operation, plus the
// class and routing shape providers and routers act on.
type KVOp struct {
	core.OpSpec
	Class KVClass
	Route KVRoute
	bind  func(KVProvider) core.Handler
}

// KVOpOf is a row together with its request and reply types.
type KVOpOf[Req KVRequest[Req], Rep any] struct{ *KVOp }

// KVOps lists every row in contract order (read-only after init).
var KVOps []*KVOp

// defKVOp defines one operation. Its handler accepts the request by
// value or by pointer, rejects any other payload with a
// core.RequestError naming the operation, and runs call on the backend
// the provider acquires for the request's epoch.
func defKVOp[Req KVRequest[Req], Rep any](name, in, out string, class KVClass, route KVRoute,
	call func(context.Context, KVBackend, Req) (Rep, error)) KVOpOf[Req, Rep] {
	op := &KVOp{OpSpec: core.OpSpec{Name: name, In: in, Out: out, Semantic: "kv." + name}, Class: class, Route: route}
	op.bind = func(p KVProvider) core.Handler {
		return func(ctx context.Context, req any) (any, error) {
			r, ok := req.(Req)
			if !ok {
				ptr, _ := req.(*Req)
				if ptr == nil {
					return nil, &core.RequestError{Op: name, Want: in, Got: core.TypeName(req)}
				}
				r = *ptr
			}
			b, err := p.Acquire(op, r.epoch())
			if err != nil {
				return nil, err
			}
			defer p.Release(op)
			rep, err := call(ctx, b, r)
			return rep, err
		}
	}
	gob.Register(*new(Req))
	KVOps = append(KVOps, op)
	return KVOpOf[Req, Rep]{op}
}

// Reply types the outcome of an invocation of the operation: a reply of
// any other type is an error, never a zero value.
func (o KVOpOf[Req, Rep]) Reply(out any, err error) (Rep, error) {
	rep, ok := out.(Rep)
	if err == nil && !ok {
		err = fmt.Errorf("sbdms: %s returned %s, want %s", o.Name, core.TypeName(out), o.Out)
	}
	return rep, err
}

// Invoke runs the operation through inv.
func (o KVOpOf[Req, Rep]) Invoke(ctx context.Context, inv core.Invoker, req Req) (Rep, error) {
	return o.Reply(inv.Invoke(ctx, o.Name, req))
}

// get and getSnapshot, like scan and scanSnapshot, read one atomic,
// phantom-free MVCC cut without key locks, through one engine function
// each. They differ in routing alone: get and scan are the leader's,
// whose cut holds every write acknowledged before the call;
// getSnapshot and scanSnapshot may be served by a follower at its
// applied frontier. Import sorts the batch and loads it as one
// transaction at one commit timestamp, bottom-up into an empty store.
var (
	KVGet = defKVOp("get", "sbdms.KVKeyRequest", "[]byte", KVLeaderRead, KVByKey,
		func(ctx context.Context, b KVBackend, r KVKeyRequest) ([]byte, error) { return b.Get(ctx, r.Key) })
	KVPut = defKVOp("put", "sbdms.KVPutRequest", "bool", KVWrite, KVByKey,
		func(ctx context.Context, b KVBackend, r KVPutRequest) (bool, error) {
			return true, b.Put(ctx, r.Key, r.Val)
		})
	KVPutBatch = defKVOp("putBatch", "sbdms.KVBatchRequest", "bool", KVWrite, KVGrouped,
		func(ctx context.Context, b KVBackend, r KVBatchRequest) (bool, error) {
			return true, b.PutBatch(ctx, r.Keys, r.Vals)
		})
	KVImport = defKVOp("import", "sbdms.KVBatchRequest", "bool", KVWrite, KVGrouped,
		func(ctx context.Context, b KVBackend, r KVBatchRequest) (bool, error) {
			return true, b.Import(ctx, r.Keys, r.Vals)
		})
	KVDelete = defKVOp("delete", "sbdms.KVKeyRequest", "bool", KVWrite, KVByKey,
		func(ctx context.Context, b KVBackend, r KVKeyRequest) (bool, error) {
			return true, b.Delete(ctx, r.Key)
		})
	KVScan = defKVOp("scan", "sbdms.KVScanRequest", "[]string", KVLeaderRead, KVFanOut,
		func(ctx context.Context, b KVBackend, r KVScanRequest) ([]string, error) {
			return b.Scan(ctx, r.Key, r.N)
		})
	KVGetSnapshot = defKVOp("getSnapshot", "sbdms.KVKeyRequest", "[]byte", KVSnapshotRead, KVByKey,
		func(ctx context.Context, b KVBackend, r KVKeyRequest) ([]byte, error) {
			return b.GetSnapshot(ctx, r.Key)
		})
	KVScanSnapshot = defKVOp("scanSnapshot", "sbdms.KVScanRequest", "[]string", KVSnapshotRead, KVFanOut,
		func(ctx context.Context, b KVBackend, r KVScanRequest) ([]string, error) {
			return b.ScanKeysSnapshot(ctx, r.Key, r.N)
		})
	KVLen = defKVOp("len", "sbdms.KVLenRequest", "uint64", KVLeaderRead, KVFanOut,
		func(ctx context.Context, b KVBackend, _ KVLenRequest) (uint64, error) { return b.Len(ctx) })
)
