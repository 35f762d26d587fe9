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
)

func init() {
	gob.Register(PageReadRequest{})
	gob.Register(PageWriteRequest{})
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
	ctx context.Context
	inv core.Invoker
}

// NewPageStoreClient wraps an invoker (usually a late-bound *core.Ref
// to IfaceDisk). storage.PageStore's methods carry no context, so every
// page call the client makes runs under ctx, the opener's.
func NewPageStoreClient(ctx context.Context, inv core.Invoker) *PageStoreClient {
	return &PageStoreClient{ctx: ctx, inv: inv}
}

// Allocate implements storage.PageStore.
func (c *PageStoreClient) Allocate() (storage.PageID, error) {
	out, err := c.inv.Invoke(c.ctx, "allocate", nil)
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
	_, err := c.inv.Invoke(c.ctx, "deallocate", id)
	return err
}

// ReadPage implements storage.PageStore.
func (c *PageStoreClient) ReadPage(id storage.PageID, buf []byte) error {
	out, err := c.inv.Invoke(c.ctx, "readPage", PageReadRequest{Page: id})
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
	_, err := c.inv.Invoke(c.ctx, "writePage", PageWriteRequest{Page: id, Data: data})
	return err
}

// NumPages implements storage.PageStore.
func (c *PageStoreClient) NumPages() uint64 {
	out, err := c.inv.Invoke(c.ctx, "numPages", nil)
	if err != nil {
		return 0
	}
	n, _ := out.(uint64)
	return n
}

// Sync implements storage.PageStore.
func (c *PageStoreClient) Sync() error {
	_, err := c.inv.Invoke(c.ctx, "sync", nil)
	return err
}

// --- KV service: Access Service over records and index ----------------
// The operations are the table in kvops.go; nothing here names one.

// KVContract describes the key-value access service interface.
func KVContract() *core.Contract {
	c := &core.Contract{
		Interface:   IfaceKV,
		Description: core.Description{Summary: "record-level key-value access over heap and B+tree"},
		Quality:     core.Quality{LatencyClass: "disk", Availability: 0.999, CostFactor: 1},
	}
	for _, op := range KVOps {
		c.Operations = append(c.Operations, op.OpSpec)
	}
	return c
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

// ServeKV registers the table's handler for every KV operation on s,
// each running against what p provides.
func ServeKV(s *core.BaseService, p KVProvider) *core.BaseService {
	for _, op := range KVOps {
		s.Handle(op.Name, op.bind(p))
	}
	return s
}

// NewKVService exposes a KV backend as an Access service.
func NewKVService(name string, backend KVBackend) *core.BaseService {
	return core.WithPing(ServeKV(core.NewService(name, KVContract()), unguarded{backend}))
}

// NewRecordService exposes the native KV core under the Record
// interface.
func NewRecordService(name string, backend KVBackend) *core.BaseService {
	return core.WithPing(ServeKV(core.NewService(name, RecordContract()), unguarded{backend}))
}

// KVClient adapts an Invoker providing the KV interface back into a
// KVBackend, enabling service-over-service stacking: each method is its
// table row invoked through the invoker.
type KVClient struct{ inv core.Invoker }

// NewKVClient wraps an invoker (usually a *core.Ref to IfaceKV or
// IfaceRecord).
func NewKVClient(inv core.Invoker) *KVClient { return &KVClient{inv: inv} }

func errOf[Rep any](_ Rep, err error) error { return err }

func (c *KVClient) Put(ctx context.Context, k string, v []byte) error {
	return errOf(KVPut.Invoke(ctx, c.inv, KVPutRequest{Key: k, Val: v}))
}
func (c *KVClient) PutBatch(ctx context.Context, keys []string, vals [][]byte) error {
	return errOf(KVPutBatch.Invoke(ctx, c.inv, KVBatchRequest{Keys: keys, Vals: vals}))
}
func (c *KVClient) Import(ctx context.Context, keys []string, vals [][]byte) error {
	return errOf(KVImport.Invoke(ctx, c.inv, KVBatchRequest{Keys: keys, Vals: vals}))
}
func (c *KVClient) Get(ctx context.Context, k string) ([]byte, error) {
	return KVGet.Invoke(ctx, c.inv, KVKeyRequest{Key: k})
}
func (c *KVClient) Delete(ctx context.Context, k string) error {
	return errOf(KVDelete.Invoke(ctx, c.inv, KVKeyRequest{Key: k}))
}
func (c *KVClient) Scan(ctx context.Context, from string, n int) ([]string, error) {
	return KVScan.Invoke(ctx, c.inv, KVScanRequest{Key: from, N: n})
}
func (c *KVClient) GetSnapshot(ctx context.Context, k string) ([]byte, error) {
	return KVGetSnapshot.Invoke(ctx, c.inv, KVKeyRequest{Key: k})
}
func (c *KVClient) ScanKeysSnapshot(ctx context.Context, from string, n int) ([]string, error) {
	return KVScanSnapshot.Invoke(ctx, c.inv, KVScanRequest{Key: from, N: n})
}
func (c *KVClient) Len(ctx context.Context) (uint64, error) {
	return KVLen.Invoke(ctx, c.inv, KVLenRequest{})
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
