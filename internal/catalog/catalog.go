// Package catalog implements the Data Services metadata of SBDMS:
// persistent table, column, index and view definitions, stored as rows
// of a dedicated heap file. A definition changes under the transaction
// of the DDL statement that changes it, through the same heap, log and
// recovery as user data, so the catalog survives restarts and crashes
// through the same storage services ("Data Services present the data in
// logical structures like tables or views", Section 3.1).
package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Catalog errors.
var (
	// ErrTableExists is returned when creating an existing table.
	ErrTableExists = errors.New("catalog: table exists")
	// ErrNoTable is returned for unknown tables.
	ErrNoTable = errors.New("catalog: no such table")
	// ErrNoColumn is returned for unknown columns.
	ErrNoColumn = errors.New("catalog: no such column")
	// ErrViewExists is returned when creating an existing view.
	ErrViewExists = errors.New("catalog: view exists")
	// ErrNoView is returned for unknown views.
	ErrNoView = errors.New("catalog: no such view")
	// ErrIndexExists is returned when creating an existing index.
	ErrIndexExists = errors.New("catalog: index exists")
	// ErrNoIndex is returned for unknown indexes.
	ErrNoIndex = errors.New("catalog: no such index")
)

// Column describes one table column.
type Column struct {
	Name    string      `json:"name"`
	Type    access.Type `json:"type"`
	NotNull bool        `json:"notNull,omitempty"`
}

// IndexDef describes a secondary (or primary) index on one column.
type IndexDef struct {
	Name     string         `json:"name"`
	Column   string         `json:"column"`
	MetaPage storage.PageID `json:"metaPage"`
	Unique   bool           `json:"unique,omitempty"`
}

// Table is a table definition.
type Table struct {
	Name     string     `json:"name"`
	Columns  []Column   `json:"columns"`
	HeapFile string     `json:"heapFile"`
	Indexes  []IndexDef `json:"indexes,omitempty"`
}

// ColumnIndex returns the ordinal of a column.
func (t *Table) ColumnIndex(name string) (int, error) {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i, nil
		}
	}
	return -1, fmt.Errorf("%w: %s.%s", ErrNoColumn, t.Name, name)
}

// Index returns the index definition on the given column, if any.
func (t *Table) Index(column string) (IndexDef, bool) {
	for _, ix := range t.Indexes {
		if strings.EqualFold(ix.Column, column) {
			return ix, true
		}
	}
	return IndexDef{}, false
}

// View is a named stored query.
type View struct {
	Name  string `json:"name"`
	Query string `json:"query"`
}

// CatalogFile is the reserved heap file name holding catalog rows.
const CatalogFile = "__catalog__"

type entryKind string

const (
	kindTable entryKind = "table"
	kindView  entryKind = "view"
)

// Catalog stores and serves schema metadata. A change writes its row
// with heap.Insert/Update/Delete(tx, …), so it is logged with logical
// undo and durable with tx's commit record, like a user row. The maps
// change at once, for the rest of tx to see; if tx aborts they are
// rebuilt from the heap before its locks are released. Callers keep
// catalog writers serial until commit (the SQL engine X-locks the
// catalog for DDL): a rolled-back delete must find its slot free.
type Catalog struct {
	mu     sync.RWMutex
	heap   *access.HeapFile
	tables map[string]*Table
	views  map[string]*View
	rids   map[string]access.RID // "kind/name" -> row
}

// Tx is the transaction a catalog change runs under. A nil Tx writes
// unlogged (tests of this package only).
type Tx interface {
	access.TxnContext
	// OnAborted registers a callback run after the transaction has
	// rolled back, before its locks are released.
	OnAborted(func() error)
}

// Open loads (or initialises) the catalog from its heap file, whose
// changes are logged to l.
func Open(fm *storage.FileManager, pool *buffer.Manager, l *wal.Log) (*Catalog, error) {
	heap, err := access.OpenHeap(CatalogFile, fm, pool)
	if err != nil {
		return nil, err
	}
	heap.SetLog(l)
	c := &Catalog{heap: heap}
	if err := c.load(); err != nil {
		return nil, err
	}
	return c, nil
}

// load rebuilds the in-memory maps from the catalog heap.
func (c *Catalog) load() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables = make(map[string]*Table)
	c.views = make(map[string]*View)
	c.rids = make(map[string]access.RID)
	return c.heap.Scan(func(rid access.RID, rec []byte) error {
		row, err := access.DecodeRow(rec)
		if err != nil {
			return err
		}
		if len(row) != 3 {
			return fmt.Errorf("catalog: malformed entry at %v", rid)
		}
		kind, name, blob := entryKind(row[0].Str), row[1].Str, row[2].Bytes
		switch kind {
		case kindTable:
			var t Table
			if err := json.Unmarshal(blob, &t); err != nil {
				return fmt.Errorf("catalog: decoding table %s: %w", name, err)
			}
			c.tables[strings.ToLower(name)] = &t
		case kindView:
			var v View
			if err := json.Unmarshal(blob, &v); err != nil {
				return fmt.Errorf("catalog: decoding view %s: %w", name, err)
			}
			c.views[strings.ToLower(name)] = &v
		default:
			return fmt.Errorf("catalog: unknown entry kind %q", kind)
		}
		c.rids[string(kind)+"/"+strings.ToLower(name)] = rid
		return nil
	})
}

func (c *Catalog) persistLocked(tx Tx, kind entryKind, name string, def any) error {
	blob, err := json.Marshal(def)
	if err != nil {
		return err
	}
	row := access.Row{
		access.NewString(string(kind)),
		access.NewString(name),
		access.NewBytes(blob),
	}
	key := string(kind) + "/" + strings.ToLower(name)
	rec := access.EncodeRow(row)
	if tx != nil {
		tx.OnAborted(c.load)
	}
	if rid, ok := c.rids[key]; ok {
		nrid, err := c.heap.Update(tx, rid, rec)
		if err != nil {
			return err
		}
		c.rids[key] = nrid
		return nil
	}
	rid, err := c.heap.Insert(tx, rec)
	if err != nil {
		return err
	}
	c.rids[key] = rid
	return nil
}

func (c *Catalog) removeLocked(tx Tx, kind entryKind, name string) error {
	key := string(kind) + "/" + strings.ToLower(name)
	rid, ok := c.rids[key]
	if !ok {
		return nil
	}
	if tx != nil {
		tx.OnAborted(c.load)
	}
	if err := c.heap.Delete(tx, rid); err != nil {
		return err
	}
	delete(c.rids, key)
	return nil
}

// CreateTable registers a new table definition under tx.
func (c *Catalog) CreateTable(tx Tx, t *Table) error {
	if t.Name == "" || len(t.Columns) == 0 {
		return fmt.Errorf("catalog: table needs a name and columns")
	}
	seen := map[string]bool{}
	for _, col := range t.Columns {
		lc := strings.ToLower(col.Name)
		if seen[lc] {
			return fmt.Errorf("catalog: duplicate column %s", col.Name)
		}
		seen[lc] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	lname := strings.ToLower(t.Name)
	if _, ok := c.tables[lname]; ok {
		return fmt.Errorf("%w: %s", ErrTableExists, t.Name)
	}
	if t.HeapFile == "" {
		t.HeapFile = "tbl_" + lname
	}
	if err := c.persistLocked(tx, kindTable, t.Name, t); err != nil {
		return err
	}
	c.tables[lname] = t
	return nil
}

// DropTable removes a table definition under tx, returning it so the
// engine can drop the underlying heap and indexes once tx commits.
func (c *Catalog) DropTable(tx Tx, name string) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lname := strings.ToLower(name)
	t, ok := c.tables[lname]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	if err := c.removeLocked(tx, kindTable, name); err != nil {
		return nil, err
	}
	delete(c.tables, lname)
	return t, nil
}

// GetTable looks up a table definition.
func (c *Catalog) GetTable(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

// AddIndex attaches an index definition to a table under tx. The table
// definition is replaced, not edited, so a reader holding the old one
// never sees it change.
func (c *Catalog) AddIndex(tx Tx, table string, def IndexDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	lname := strings.ToLower(table)
	t, ok := c.tables[lname]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	for _, ix := range t.Indexes {
		if strings.EqualFold(ix.Name, def.Name) {
			return fmt.Errorf("%w: %s", ErrIndexExists, def.Name)
		}
	}
	if _, err := t.ColumnIndex(def.Column); err != nil {
		return err
	}
	nt := *t
	nt.Indexes = append(append([]IndexDef(nil), t.Indexes...), def)
	return c.replaceLocked(tx, lname, &nt)
}

func (c *Catalog) replaceLocked(tx Tx, lname string, t *Table) error {
	if err := c.persistLocked(tx, kindTable, t.Name, t); err != nil {
		return err
	}
	c.tables[lname] = t
	return nil
}

// IndexTable returns the name of the table the named index belongs to.
func (c *Catalog) IndexTable(name string) (string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, t := range c.tables {
		for _, ix := range t.Indexes {
			if strings.EqualFold(ix.Name, name) {
				return t.Name, nil
			}
		}
	}
	return "", fmt.Errorf("%w: %s", ErrNoIndex, name)
}

// DropIndex removes the named index of table under tx, returning its
// definition.
func (c *Catalog) DropIndex(tx Tx, table, name string) (IndexDef, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lname := strings.ToLower(table)
	if t, ok := c.tables[lname]; ok {
		for i, ix := range t.Indexes {
			if strings.EqualFold(ix.Name, name) {
				nt := *t
				nt.Indexes = append(append([]IndexDef(nil), t.Indexes[:i]...), t.Indexes[i+1:]...)
				return ix, c.replaceLocked(tx, lname, &nt)
			}
		}
	}
	return IndexDef{}, fmt.Errorf("%w: %s", ErrNoIndex, name)
}

// CreateView registers a named query under tx.
func (c *Catalog) CreateView(tx Tx, v *View) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	lname := strings.ToLower(v.Name)
	if _, ok := c.views[lname]; ok {
		return fmt.Errorf("%w: %s", ErrViewExists, v.Name)
	}
	if err := c.persistLocked(tx, kindView, v.Name, v); err != nil {
		return err
	}
	c.views[lname] = v
	return nil
}

// DropView removes a view under tx.
func (c *Catalog) DropView(tx Tx, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	lname := strings.ToLower(name)
	if _, ok := c.views[lname]; !ok {
		return fmt.Errorf("%w: %s", ErrNoView, name)
	}
	if err := c.removeLocked(tx, kindView, name); err != nil {
		return err
	}
	delete(c.views, lname)
	return nil
}

// GetView looks up a view.
func (c *Catalog) GetView(name string) (*View, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoView, name)
	}
	return v, nil
}
