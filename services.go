package sbdms

import (
	"context"
	"encoding/gob"
	"fmt"

	"repro/internal/core"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Interface names of the SBDMS layers (Figure 2). Multiple providers
// may register under each name; selection and adaptation operate on
// these.
const (
	IfaceDisk   = "sbdms.storage.Disk"
	IfaceRecord = "sbdms.access.Record"
	IfaceKV     = "sbdms.access.KV"
	IfaceQuery  = "sbdms.data.Query"
)

// Wire types of the storage service. Exported so bindings can move
// them between processes.
type (
	// PageReadRequest asks for the content of a page.
	PageReadRequest struct{ Page storage.PageID }
	// PageWriteRequest carries a full page image.
	PageWriteRequest struct {
		Page storage.PageID
		Data []byte
	}
	// KVPutRequest stores a key/value pair.
	KVPutRequest struct {
		Key string
		Val []byte
	}
	// KVBatchRequest stores several key/value pairs atomically.
	KVBatchRequest struct {
		Keys []string
		Vals [][]byte
	}
	// KVImportRequest bulk-loads key/value pairs through the sorted
	// bottom-up build fast path (per-key fallback on a non-empty store).
	KVImportRequest struct {
		Keys []string
		Vals [][]byte
	}
	// KVScanRequest asks for up to N keys from Key onward.
	KVScanRequest struct {
		Key string
		N   int
	}
	// RecordPutRequest stores an encoded record.
	RecordPutRequest struct{ Rec []byte }
)

func init() {
	gob.Register(PageReadRequest{})
	gob.Register(PageWriteRequest{})
	gob.Register(KVPutRequest{})
	gob.Register(KVBatchRequest{})
	gob.Register(KVImportRequest{})
	gob.Register(KVScanRequest{})
	gob.Register(RecordPutRequest{})
	gob.Register(storage.PageID(0))
	gob.Register(uint64(0))
}

// --- Disk service: byte/page-level Storage Service --------------------

// DiskContract describes the disk storage service interface.
func DiskContract() *core.Contract {
	return &core.Contract{
		Interface: IfaceDisk,
		Operations: []core.OpSpec{
			{Name: "allocate", In: "nil", Out: "storage.PageID", Semantic: "storage.allocate"},
			{Name: "deallocate", In: "storage.PageID", Out: "bool", Semantic: "storage.deallocate"},
			{Name: "readPage", In: "sbdms.PageReadRequest", Out: "[]byte", Semantic: "storage.readPage"},
			{Name: "writePage", In: "sbdms.PageWriteRequest", Out: "bool", Semantic: "storage.writePage"},
			{Name: "numPages", In: "nil", Out: "uint64", Semantic: "storage.numPages"},
			{Name: "sync", In: "nil", Out: "bool", Semantic: "storage.sync"},
		},
		Description: core.Description{Summary: "page-granular non-volatile storage"},
		Quality:     core.Quality{LatencyClass: "disk", Availability: 0.999, CostFactor: 1},
	}
}

// NewDiskService exposes a storage.PageStore as a Disk storage service.
func NewDiskService(name string, store storage.PageStore) *core.BaseService {
	s := core.NewService(name, DiskContract())
	s.Handle("allocate", func(ctx context.Context, req any) (any, error) {
		return store.Allocate()
	})
	s.Handle("deallocate", func(ctx context.Context, req any) (any, error) {
		id, ok := req.(storage.PageID)
		if !ok {
			return nil, &core.RequestError{Op: "deallocate", Want: "storage.PageID", Got: core.TypeName(req)}
		}
		return true, store.Deallocate(id)
	})
	s.Handle("readPage", func(ctx context.Context, req any) (any, error) {
		r, ok := req.(PageReadRequest)
		if !ok {
			return nil, &core.RequestError{Op: "readPage", Want: "sbdms.PageReadRequest", Got: core.TypeName(req)}
		}
		buf := make([]byte, storage.PageSize)
		if err := store.ReadPage(r.Page, buf); err != nil {
			return nil, err
		}
		return buf, nil
	})
	s.Handle("writePage", func(ctx context.Context, req any) (any, error) {
		r, ok := req.(PageWriteRequest)
		if !ok {
			return nil, &core.RequestError{Op: "writePage", Want: "sbdms.PageWriteRequest", Got: core.TypeName(req)}
		}
		return true, store.WritePage(r.Page, r.Data)
	})
	s.Handle("numPages", func(ctx context.Context, req any) (any, error) {
		return store.NumPages(), nil
	})
	s.Handle("sync", func(ctx context.Context, req any) (any, error) {
		return true, store.Sync()
	})
	return core.WithPing(s)
}

// PageStoreClient adapts any Invoker providing the Disk interface back
// into a storage.PageStore, so buffer managers and file managers can be
// stacked over a *service* instead of a local disk — the composition
// mechanism behind the layered and fine granularity profiles.
type PageStoreClient struct {
	inv core.Invoker
}

// NewPageStoreClient wraps an invoker (usually a late-bound *core.Ref
// to IfaceDisk).
func NewPageStoreClient(inv core.Invoker) *PageStoreClient {
	return &PageStoreClient{inv: inv}
}

var bg = context.Background()

// Allocate implements storage.PageStore.
func (c *PageStoreClient) Allocate() (storage.PageID, error) {
	out, err := c.inv.Invoke(bg, "allocate", nil)
	if err != nil {
		return storage.InvalidPageID, err
	}
	id, ok := out.(storage.PageID)
	if !ok {
		return storage.InvalidPageID, fmt.Errorf("sbdms: allocate returned %T", out)
	}
	return id, nil
}

// Deallocate implements storage.PageStore.
func (c *PageStoreClient) Deallocate(id storage.PageID) error {
	_, err := c.inv.Invoke(bg, "deallocate", id)
	return err
}

// ReadPage implements storage.PageStore.
func (c *PageStoreClient) ReadPage(id storage.PageID, buf []byte) error {
	out, err := c.inv.Invoke(bg, "readPage", PageReadRequest{Page: id})
	if err != nil {
		return err
	}
	b, ok := out.([]byte)
	if !ok || len(b) != storage.PageSize {
		return fmt.Errorf("sbdms: readPage returned %T (%d bytes)", out, len(b))
	}
	copy(buf, b)
	return nil
}

// WritePage implements storage.PageStore.
func (c *PageStoreClient) WritePage(id storage.PageID, data []byte) error {
	_, err := c.inv.Invoke(bg, "writePage", PageWriteRequest{Page: id, Data: data})
	return err
}

// NumPages implements storage.PageStore.
func (c *PageStoreClient) NumPages() uint64 {
	out, err := c.inv.Invoke(bg, "numPages", nil)
	if err != nil {
		return 0
	}
	n, _ := out.(uint64)
	return n
}

// Sync implements storage.PageStore.
func (c *PageStoreClient) Sync() error {
	_, err := c.inv.Invoke(bg, "sync", nil)
	return err
}

// --- KV service: Access Service over records and index ----------------

// KVContract describes the key-value access service interface.
func KVContract() *core.Contract {
	return &core.Contract{
		Interface: IfaceKV,
		Operations: []core.OpSpec{
			{Name: "get", In: "string", Out: "[]byte", Semantic: "kv.get"},
			{Name: "put", In: "sbdms.KVPutRequest", Out: "bool", Semantic: "kv.put"},
			{Name: "putBatch", In: "sbdms.KVBatchRequest", Out: "bool", Semantic: "kv.putBatch"},
			// Import is the bulk-ingest path: the batch is sorted and
			// loaded as one transaction at one commit timestamp, through
			// the bottom-up tree build when the store is empty.
			{Name: "import", In: "sbdms.KVImportRequest", Out: "bool", Semantic: "kv.import"},
			{Name: "delete", In: "string", Out: "bool", Semantic: "kv.delete"},
			// Scan honours the engine's configured ScanIsolation: at
			// serializable the result is an atomic (phantom-free)
			// snapshot; at read-committed it is a best-effort view.
			{Name: "scan", In: "sbdms.KVScanRequest", Out: "[]string", Semantic: "kv.scan"},
			// The snapshot variants read one consistent MVCC cut without
			// taking key locks, at any configured ScanIsolation.
			{Name: "getSnapshot", In: "string", Out: "[]byte", Semantic: "kv.getSnapshot"},
			{Name: "scanSnapshot", In: "sbdms.KVScanRequest", Out: "[]string", Semantic: "kv.scanSnapshot"},
			{Name: "len", In: "nil", Out: "uint64", Semantic: "kv.len"},
		},
		Description: core.Description{Summary: "record-level key-value access over heap and B+tree"},
		Quality:     core.Quality{LatencyClass: "disk", Availability: 0.999, CostFactor: 1},
	}
}

// kvBackend is what a KV service delegates to: the native core or a
// further service hop (layered/fine profiles). Every operation takes a
// context: lock waits inside the engine (per-key 2PL, and at
// serializable isolation the next-key locks scans and writers take)
// observe its cancellation, so a caller can bound how long it is
// willing to block behind a conflicting transaction.
type kvBackend interface {
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

// NewKVService exposes a KV backend as an Access service.
func NewKVService(name string, backend kvBackend) *core.BaseService {
	s := core.NewService(name, KVContract())
	s.Handle("get", func(ctx context.Context, req any) (any, error) {
		k, ok := req.(string)
		if !ok {
			return nil, &core.RequestError{Op: "get", Want: "string", Got: core.TypeName(req)}
		}
		return backend.Get(ctx, k)
	})
	s.Handle("put", func(ctx context.Context, req any) (any, error) {
		r, ok := req.(KVPutRequest)
		if !ok {
			return nil, &core.RequestError{Op: "put", Want: "sbdms.KVPutRequest", Got: core.TypeName(req)}
		}
		return true, backend.Put(ctx, r.Key, r.Val)
	})
	s.Handle("putBatch", func(ctx context.Context, req any) (any, error) {
		r, ok := req.(KVBatchRequest)
		if !ok {
			return nil, &core.RequestError{Op: "putBatch", Want: "sbdms.KVBatchRequest", Got: core.TypeName(req)}
		}
		return true, backend.PutBatch(ctx, r.Keys, r.Vals)
	})
	s.Handle("import", func(ctx context.Context, req any) (any, error) {
		r, ok := req.(KVImportRequest)
		if !ok {
			return nil, &core.RequestError{Op: "import", Want: "sbdms.KVImportRequest", Got: core.TypeName(req)}
		}
		return true, backend.Import(ctx, r.Keys, r.Vals)
	})
	s.Handle("delete", func(ctx context.Context, req any) (any, error) {
		k, ok := req.(string)
		if !ok {
			return nil, &core.RequestError{Op: "delete", Want: "string", Got: core.TypeName(req)}
		}
		return true, backend.Delete(ctx, k)
	})
	s.Handle("scan", func(ctx context.Context, req any) (any, error) {
		r, ok := req.(KVScanRequest)
		if !ok {
			return nil, &core.RequestError{Op: "scan", Want: "sbdms.KVScanRequest", Got: core.TypeName(req)}
		}
		return backend.Scan(ctx, r.Key, r.N)
	})
	s.Handle("getSnapshot", func(ctx context.Context, req any) (any, error) {
		k, ok := req.(string)
		if !ok {
			return nil, &core.RequestError{Op: "getSnapshot", Want: "string", Got: core.TypeName(req)}
		}
		return backend.GetSnapshot(ctx, k)
	})
	s.Handle("scanSnapshot", func(ctx context.Context, req any) (any, error) {
		r, ok := req.(KVScanRequest)
		if !ok {
			return nil, &core.RequestError{Op: "scanSnapshot", Want: "sbdms.KVScanRequest", Got: core.TypeName(req)}
		}
		return backend.ScanKeysSnapshot(ctx, r.Key, r.N)
	})
	s.Handle("len", func(ctx context.Context, req any) (any, error) {
		return backend.Len(ctx)
	})
	return core.WithPing(s)
}

// KVClient adapts an Invoker providing the KV interface back into a
// kvBackend, enabling service-over-service stacking.
type KVClient struct{ inv core.Invoker }

// NewKVClient wraps an invoker (usually a *core.Ref to IfaceKV or
// IfaceRecord).
func NewKVClient(inv core.Invoker) *KVClient { return &KVClient{inv: inv} }

// Put implements kvBackend.
func (c *KVClient) Put(ctx context.Context, k string, v []byte) error {
	_, err := c.inv.Invoke(ctx, "put", KVPutRequest{Key: k, Val: v})
	return err
}

// PutBatch implements kvBackend.
func (c *KVClient) PutBatch(ctx context.Context, keys []string, vals [][]byte) error {
	_, err := c.inv.Invoke(ctx, "putBatch", KVBatchRequest{Keys: keys, Vals: vals})
	return err
}

// Import implements kvBackend.
func (c *KVClient) Import(ctx context.Context, keys []string, vals [][]byte) error {
	_, err := c.inv.Invoke(ctx, "import", KVImportRequest{Keys: keys, Vals: vals})
	return err
}

// Get implements kvBackend.
func (c *KVClient) Get(ctx context.Context, k string) ([]byte, error) {
	out, err := c.inv.Invoke(ctx, "get", k)
	if err != nil {
		return nil, err
	}
	b, ok := out.([]byte)
	if !ok {
		return nil, fmt.Errorf("sbdms: get returned %T", out)
	}
	return b, nil
}

// Delete implements kvBackend.
func (c *KVClient) Delete(ctx context.Context, k string) error {
	_, err := c.inv.Invoke(ctx, "delete", k)
	return err
}

// Scan implements kvBackend.
func (c *KVClient) Scan(ctx context.Context, from string, n int) ([]string, error) {
	out, err := c.inv.Invoke(ctx, "scan", KVScanRequest{Key: from, N: n})
	if err != nil {
		return nil, err
	}
	ks, ok := out.([]string)
	if !ok {
		return nil, fmt.Errorf("sbdms: scan returned %T", out)
	}
	return ks, nil
}

// GetSnapshot implements kvBackend.
func (c *KVClient) GetSnapshot(ctx context.Context, k string) ([]byte, error) {
	out, err := c.inv.Invoke(ctx, "getSnapshot", k)
	if err != nil {
		return nil, err
	}
	b, ok := out.([]byte)
	if !ok {
		return nil, fmt.Errorf("sbdms: getSnapshot returned %T", out)
	}
	return b, nil
}

// ScanKeysSnapshot implements kvBackend.
func (c *KVClient) ScanKeysSnapshot(ctx context.Context, from string, n int) ([]string, error) {
	out, err := c.inv.Invoke(ctx, "scanSnapshot", KVScanRequest{Key: from, N: n})
	if err != nil {
		return nil, err
	}
	ks, ok := out.([]string)
	if !ok {
		return nil, fmt.Errorf("sbdms: scanSnapshot returned %T", out)
	}
	return ks, nil
}

// Len implements kvBackend.
func (c *KVClient) Len(ctx context.Context) (uint64, error) {
	out, err := c.inv.Invoke(ctx, "len", nil)
	if err != nil {
		return 0, err
	}
	n, ok := out.(uint64)
	if !ok {
		return 0, fmt.Errorf("sbdms: len returned %T", out)
	}
	return n, nil
}

// RecordContract is the record-level access interface (the middle hop
// of the layered and fine profiles). It is operationally identical to
// the KV contract but registered under its own interface name so that
// the two layers are distinct architectural services.
func RecordContract() *core.Contract {
	c := KVContract()
	c.Interface = IfaceRecord
	c.Description.Summary = "record manager over heap file and index"
	return c
}

// NewRecordService exposes the native KV core under the Record
// interface.
func NewRecordService(name string, backend kvBackend) *core.BaseService {
	s := core.NewService(name, RecordContract())
	inner := NewKVService(name+"-inner", backend)
	// Delegate every op to the same handlers as a KV service.
	for _, op := range []string{"get", "put", "putBatch", "import", "delete", "scan", "getSnapshot", "scanSnapshot", "len"} {
		op := op
		s.Handle(op, func(ctx context.Context, req any) (any, error) {
			return inner.Invoke(ctx, op, req)
		})
	}
	s.OnStart(func(ctx context.Context) error { return inner.Start(ctx) })
	s.OnStop(func(ctx context.Context) error { return inner.Stop(ctx) })
	return core.WithPing(s)
}

// --- Query service: Data Service --------------------------------------

// QueryContract describes the SQL Data Service interface.
func QueryContract() *core.Contract {
	return &core.Contract{
		Interface: IfaceQuery,
		Operations: []core.OpSpec{
			{Name: "execute", In: "string", Out: "sql.Result", Semantic: "query.execute"},
		},
		Description: core.Description{Summary: "SQL query and DML execution over logical tables and views"},
		Quality:     core.Quality{LatencyClass: "disk", Availability: 0.999, CostFactor: 1},
	}
}

// NewQueryService exposes a SQL engine as the Data Service.
func NewQueryService(name string, engine *sql.Engine) *core.BaseService {
	s := core.NewService(name, QueryContract())
	s.Handle("execute", func(ctx context.Context, req any) (any, error) {
		q, ok := req.(string)
		if !ok {
			return nil, &core.RequestError{Op: "execute", Want: "string", Got: core.TypeName(req)}
		}
		return engine.Execute(ctx, q)
	})
	return core.WithPing(s)
}
