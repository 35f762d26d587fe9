package sql

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/undo"
	"repro/internal/wal"
)

// Engine errors.
var (
	// ErrNoActiveTxn is returned by COMMIT/ROLLBACK without BEGIN.
	ErrNoActiveTxn = errors.New("sql: no active transaction")
	// ErrTxnOpen is returned by BEGIN when a transaction is active.
	ErrTxnOpen = errors.New("sql: transaction already open")
	// ErrNotNull is returned when a NOT NULL column receives NULL.
	ErrNotNull = errors.New("sql: NOT NULL constraint violated")
	// ErrArity is returned when INSERT arity mismatches the table.
	ErrArity = errors.New("sql: column count mismatch")
)

// Result is the outcome of one statement.
type Result struct {
	// Cols names the result columns (SELECT only).
	Cols []string
	// Rows holds the result rows (SELECT only).
	Rows []access.Row
	// Affected counts modified rows for DML, 0 otherwise.
	Affected int
}

// Engine executes SQL statements against the storage stack: catalog,
// heap files, B+tree indexes and the transaction manager. It is the
// implementation behind the Data Services query interface.
//
// Statement-level isolation comes from the lock manager (shared/
// exclusive table locks acquired per statement); page-level consistency
// from the buffer pool's latches. The engine's own mutex is catalog-
// level only — a read-write lock over the open-heap/open-tree maps and
// session state, held for map lookups, never across statement
// execution — so reads on different tables (and on the same table)
// proceed in parallel.
type Engine struct {
	fm   *storage.FileManager
	pool *buffer.Manager
	cat  *catalog.Catalog
	txns *txn.Manager
	wal  *wal.Log // applied to every heap and B+tree the engine opens

	mu      sync.RWMutex
	heaps   map[string]*access.HeapFile
	trees   map[storage.PageID]*index.BTree
	current *txn.Txn // session transaction from BEGIN
	undoex  *undo.Executor
	failed  error // fatal engine fault; all further statements refused
}

// NewEngine assembles an engine over an opened storage stack: every
// statement runs under a transaction of txns, and every heap and B+tree
// the engine opens logs to l (the log txns was built over).
func NewEngine(fm *storage.FileManager, pool *buffer.Manager, cat *catalog.Catalog, txns *txn.Manager, l *wal.Log) *Engine {
	return &Engine{
		fm:    fm,
		pool:  pool,
		cat:   cat,
		txns:  txns,
		wal:   l,
		heaps: make(map[string]*access.HeapFile),
		trees: make(map[storage.PageID]*index.BTree),
	}
}

// Catalog exposes the engine's catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Pool exposes the engine's buffer manager (monitoring services read
// its statistics).
func (e *Engine) Pool() *buffer.Manager { return e.pool }

// SetUndo attaches the logical-undo executor; every tree the engine
// opens registers with it so rollbacks (live and post-crash) run
// against the same handles the engine uses.
func (e *Engine) SetUndo(ex *undo.Executor) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.undoex = ex
	for _, t := range e.trees {
		ex.Register(t)
	}
}

// configureTree wires a freshly opened tree into the engine's WAL,
// system transactions, logged free path and undo registry. Callers hold
// e.mu.
func (e *Engine) configureTreeLocked(t *index.BTree) {
	t.SetLog(e.wal)
	t.SetSystemTxns(e.txns.SystemHooksHeldLatches())
	t.SetFreer(e.fm.FreePagesLogged)
	if e.undoex != nil {
		e.undoex.Register(t)
	}
}

func (e *Engine) heap(t *catalog.Table) (*access.HeapFile, error) {
	e.mu.RLock()
	h, ok := e.heaps[t.HeapFile]
	e.mu.RUnlock()
	if ok {
		return h, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if h, ok := e.heaps[t.HeapFile]; ok {
		return h, nil
	}
	h, err := access.OpenHeap(t.HeapFile, e.fm, e.pool)
	if err != nil {
		return nil, err
	}
	h.SetLog(e.wal)
	e.heaps[t.HeapFile] = h
	return h, nil
}

// Execute parses and executes one statement.
func (e *Engine) Execute(ctx context.Context, src string) (*Result, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.ExecuteStmt(ctx, st)
}

// poison takes the engine offline: after a rollback that failed midway
// (pages half-rewound) or whose index-meta resynchronisation failed
// (cached B+tree roots possibly pointing into rewound pages), running
// further statements would corrupt live data. Mirrors the KV core's
// failed-rollback poisoning.
func (e *Engine) poison(err error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.failed == nil {
		e.failed = fmt.Errorf("sql: engine offline after failed rollback: %w", err)
	}
	return e.failed
}

// ExecuteStmt executes a parsed statement. Every statement but BEGIN,
// COMMIT and ROLLBACK runs under the session transaction when one is
// open, otherwise under a per-statement auto-commit transaction, and
// locks the tables it reads (S) or changes (X) first.
func (e *Engine) ExecuteStmt(ctx context.Context, st Statement) (*Result, error) {
	e.mu.RLock()
	if ferr := e.failed; ferr != nil {
		e.mu.RUnlock()
		return nil, ferr
	}
	e.mu.RUnlock()
	switch st.(type) {
	case *Begin:
		return e.begin()
	case *Commit:
		return e.commitSession()
	case *Rollback:
		return e.rollbackSession()
	}

	tx, auto, err := e.stmtTxn()
	if err != nil {
		return nil, err
	}
	res, err := e.runStmt(ctx, st, tx)
	if auto {
		if err != nil {
			// Logical undo and the OnAborted hooks (catalog rebuild,
			// freeing new pages) keep in-memory state coherent.
			if aerr := e.txns.Abort(tx); aerr != nil {
				err = fmt.Errorf("%w (%v)", err, e.poison(aerr))
			}
		} else if cerr := e.txns.Commit(tx); cerr != nil {
			return nil, cerr
		}
	}
	return res, err
}

func (e *Engine) stmtTxn() (*txn.Txn, bool, error) {
	e.mu.Lock()
	cur := e.current
	e.mu.Unlock()
	if cur != nil {
		return cur, false, nil
	}
	tx, err := e.txns.Begin()
	if err != nil {
		return nil, false, err
	}
	return tx, true, nil
}

// catalogLock is the lock every DDL statement takes besides its
// table's: it serialises catalog writers until commit, so a rolled-back
// catalog delete always finds its slot free.
const catalogLock = catalog.CatalogFile

func (e *Engine) runStmt(ctx context.Context, st Statement, tx *txn.Txn) (*Result, error) {
	tables, mode, err := e.stmtLocks(st)
	if err != nil {
		return nil, err
	}
	if err := e.lockTables(ctx, tx, tables, mode); err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *Select:
		op, err := e.planSelect(ctx, s)
		if err != nil {
			return nil, err
		}
		rows, err := exec.Collect(ctx, op)
		if err != nil {
			return nil, err
		}
		return &Result{Cols: op.Columns(), Rows: rows}, nil
	case *Insert:
		return e.runInsert(ctx, s, tx)
	case *Update:
		return e.runUpdate(ctx, s, tx)
	case *Delete:
		return e.runDelete(ctx, s, tx)
	case *CreateTable:
		return e.createTable(s, tx)
	case *CreateIndex:
		return e.createIndex(s, tx)
	case *CreateView:
		return &Result{}, e.cat.CreateView(tx, &catalog.View{Name: s.Name, Query: s.Query})
	case *Drop:
		return e.drop(s, tables[0], tx)
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", st)
}

// stmtLocks names the tables a statement locks, and how: a SELECT's
// tables shared; the table a write or DDL statement changes exclusive,
// and for DDL the catalog too. A DROP INDEX locks its index's table.
func (e *Engine) stmtLocks(st Statement) ([]string, txn.LockMode, error) {
	switch s := st.(type) {
	case *Select:
		var out []string
		for _, r := range s.From {
			out = append(out, r.Table)
		}
		return out, txn.Shared, nil
	case *Insert:
		return []string{s.Table}, txn.Exclusive, nil
	case *Update:
		return []string{s.Table}, txn.Exclusive, nil
	case *Delete:
		return []string{s.Table}, txn.Exclusive, nil
	case *CreateTable:
		return []string{s.Name, catalogLock}, txn.Exclusive, nil
	case *CreateIndex:
		return []string{s.Table, catalogLock}, txn.Exclusive, nil
	case *CreateView:
		return []string{s.Name, catalogLock}, txn.Exclusive, nil
	case *Drop:
		name := s.Name
		if s.Kind == "INDEX" {
			table, err := e.cat.IndexTable(s.Name)
			if err != nil {
				return nil, 0, err
			}
			name = table
		}
		return []string{name, catalogLock}, txn.Exclusive, nil
	}
	return nil, 0, fmt.Errorf("sql: unsupported statement %T", st)
}

func (e *Engine) lockTables(ctx context.Context, tx *txn.Txn, tables []string, mode txn.LockMode) error {
	for _, t := range tables {
		if err := tx.Lock(ctx, "table:"+strings.ToLower(t), mode); err != nil {
			return err
		}
	}
	return nil
}

// --- session transactions ---

func (e *Engine) begin() (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.current != nil {
		return nil, ErrTxnOpen
	}
	tx, err := e.txns.Begin()
	if err != nil {
		return nil, err
	}
	e.current = tx
	return &Result{}, nil
}

func (e *Engine) commitSession() (*Result, error) {
	e.mu.Lock()
	cur := e.current
	e.current = nil
	e.mu.Unlock()
	if cur == nil {
		return nil, ErrNoActiveTxn
	}
	if err := e.txns.Commit(cur); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) rollbackSession() (*Result, error) {
	e.mu.Lock()
	cur := e.current
	e.current = nil
	e.mu.Unlock()
	if cur == nil {
		return nil, ErrNoActiveTxn
	}
	if err := e.txns.Abort(cur); err != nil {
		return nil, e.poison(err)
	}
	return &Result{}, nil
}

// --- DDL ---
//
// DDL writes its catalog row and pages under the statement's
// transaction. Storage it allocates is freed OnAborted; storage it
// drops, OnCommitted.

func (e *Engine) createTable(s *CreateTable, tx *txn.Txn) (*Result, error) {
	cols := make([]catalog.Column, len(s.Columns))
	for i, c := range s.Columns {
		t, err := access.ParseType(c.TypeName)
		if err != nil {
			return nil, err
		}
		cols[i] = catalog.Column{Name: c.Name, Type: t, NotNull: c.NotNull}
	}
	// A heap file of a table dropped earlier in this transaction lives
	// until the commit, so its name may still be taken.
	lname := strings.ToLower(s.Name)
	heapFile := "tbl_" + lname
	for n := 2; e.fm.Exists(heapFile); n++ {
		heapFile = fmt.Sprintf("tbl_%s.%d", lname, n)
	}
	tbl := &catalog.Table{Name: s.Name, Columns: cols, HeapFile: heapFile}
	if err := e.cat.CreateTable(tx, tbl); err != nil {
		return nil, err
	}
	if _, err := e.heap(tbl); err != nil {
		return nil, err
	}
	tx.OnAborted(func() error { return e.dropStorage(heapFile, nil) })
	return &Result{}, nil
}

func (e *Engine) createIndex(s *CreateIndex, tx *txn.Txn) (*Result, error) {
	tbl, err := e.cat.GetTable(s.Table)
	if err != nil {
		return nil, err
	}
	colIdx, err := tbl.ColumnIndex(s.Column)
	if err != nil {
		return nil, err
	}
	if _, err := e.cat.IndexTable(s.Name); err == nil {
		return nil, fmt.Errorf("%w: %s", catalog.ErrIndexExists, s.Name)
	}
	h, err := e.heap(tbl)
	if err != nil {
		return nil, err
	}
	var items []index.BulkItem
	err = h.Scan(func(rid access.RID, rec []byte) error {
		row, err := access.DecodeRow(rec)
		if err != nil {
			return err
		}
		items = append(items, index.BulkItem{Key: access.EncodeKey(row[colIdx]), RID: rid})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Rolled back, the pages hold their pre-build images again: free
	// them by list, since the tree can no longer be walked.
	tree, pages, err := index.Build(tx, e.pool, e.wal, s.Unique, items)
	if len(pages) > 0 {
		tx.OnAborted(func() error {
			e.forgetTree(pages[0])
			return e.fm.FreePagesLogged(pages)
		})
	}
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.configureTreeLocked(tree)
	e.trees[tree.MetaID()] = tree
	e.mu.Unlock()
	def := catalog.IndexDef{Name: s.Name, Column: s.Column, MetaPage: tree.MetaID(), Unique: s.Unique}
	return &Result{}, e.cat.AddIndex(tx, tbl.Name, def)
}

// drop removes a table, index or view; table is the one it locked.
func (e *Engine) drop(s *Drop, table string, tx *txn.Txn) (*Result, error) {
	switch s.Kind {
	case "TABLE":
		tbl, err := e.cat.DropTable(tx, s.Name)
		if err != nil {
			return nil, err
		}
		e.onCommitted(tx, func() error { return e.dropStorage(tbl.HeapFile, tbl.Indexes) })
	case "INDEX":
		def, err := e.cat.DropIndex(tx, table, s.Name)
		if err != nil {
			return nil, err
		}
		e.onCommitted(tx, func() error { return e.dropStorage("", []catalog.IndexDef{def}) })
	case "VIEW":
		if err := e.cat.DropView(tx, s.Name); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("sql: unsupported DROP %s", s.Kind)
	}
	return &Result{}, nil
}

// onCommitted runs f once tx commits; a failure takes the engine offline.
func (e *Engine) onCommitted(tx *txn.Txn, f func() error) {
	tx.OnCommitted(func() {
		if err := f(); err != nil {
			_ = e.poison(fmt.Errorf("sql: freeing dropped storage: %w", err))
		}
	})
}

// dropStorage frees a heap file (when named) and the trees of indexes.
func (e *Engine) dropStorage(heapFile string, indexes []catalog.IndexDef) error {
	for _, ix := range indexes {
		tree, err := e.tree(ix)
		if err != nil {
			return err
		}
		e.forgetTree(ix.MetaPage)
		if err := tree.Drop(); err != nil {
			return err
		}
	}
	if heapFile == "" {
		return nil
	}
	e.mu.Lock()
	delete(e.heaps, heapFile)
	e.mu.Unlock()
	return e.fm.Drop(heapFile)
}

func (e *Engine) forgetTree(metaID storage.PageID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.trees, metaID)
	if e.undoex != nil {
		e.undoex.Unregister(metaID)
	}
}

func (e *Engine) tree(def catalog.IndexDef) (*index.BTree, error) {
	e.mu.RLock()
	if t, ok := e.trees[def.MetaPage]; ok {
		e.mu.RUnlock()
		return t, nil
	}
	e.mu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if t, ok := e.trees[def.MetaPage]; ok {
		return t, nil
	}
	t, err := index.Open(e.pool, def.MetaPage)
	if err != nil {
		return nil, err
	}
	e.configureTreeLocked(t)
	e.trees[def.MetaPage] = t
	return t, nil
}

// --- DML ---

type openIndex struct {
	def    catalog.IndexDef
	tree   *index.BTree
	colIdx int
}

func (e *Engine) openIndexes(tbl *catalog.Table) ([]openIndex, error) {
	var out []openIndex
	for _, def := range tbl.Indexes {
		tree, err := e.tree(def)
		if err != nil {
			return nil, err
		}
		ci, err := tbl.ColumnIndex(def.Column)
		if err != nil {
			return nil, err
		}
		out = append(out, openIndex{def: def, tree: tree, colIdx: ci})
	}
	return out, nil
}

func (e *Engine) runInsert(ctx context.Context, s *Insert, tx *txn.Txn) (*Result, error) {
	tbl, err := e.cat.GetTable(s.Table)
	if err != nil {
		return nil, err
	}
	h, err := e.heap(tbl)
	if err != nil {
		return nil, err
	}
	indexes, err := e.openIndexes(tbl)
	if err != nil {
		return nil, err
	}
	// Column mapping.
	targets := make([]int, 0, len(tbl.Columns))
	if len(s.Columns) == 0 {
		for i := range tbl.Columns {
			targets = append(targets, i)
		}
	} else {
		for _, c := range s.Columns {
			i, err := tbl.ColumnIndex(c)
			if err != nil {
				return nil, err
			}
			targets = append(targets, i)
		}
	}
	affected := 0
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(targets) {
			return nil, fmt.Errorf("%w: %d values for %d columns", ErrArity, len(exprRow), len(targets))
		}
		row := make(access.Row, len(tbl.Columns))
		for i := range row {
			row[i] = access.Null()
		}
		for i, ex := range exprRow {
			v, err := ex.Eval(nil, nil)
			if err != nil {
				return nil, err
			}
			cv, err := coerce(v, tbl.Columns[targets[i]].Type)
			if err != nil {
				return nil, fmt.Errorf("%s.%s: %w", tbl.Name, tbl.Columns[targets[i]].Name, err)
			}
			row[targets[i]] = cv
		}
		for i, col := range tbl.Columns {
			if col.NotNull && row[i].IsNull() {
				return nil, fmt.Errorf("%w: %s.%s", ErrNotNull, tbl.Name, col.Name)
			}
		}
		if err := e.insertRow(h, indexes, tx, row); err != nil {
			return nil, err
		}
		affected++
	}
	return &Result{Affected: affected}, nil
}

// insertRow writes the row and maintains every index through the
// trees' transactional hooks, so heap and index mutations share one
// physical redo/undo story: an abort rewinds the index pages from
// before images, exactly like the heap. On index failure (e.g. unique
// violation) the partial work of this row is reverted inside the same
// transaction — the statement fails but a surrounding session
// transaction stays usable.
func (e *Engine) insertRow(h *access.HeapFile, indexes []openIndex, tx *txn.Txn, row access.Row) error {
	rid, err := h.Insert(tx, access.EncodeRow(row))
	if err != nil {
		return err
	}
	for k, ix := range indexes {
		key := access.EncodeKey(row[ix.colIdx])
		if err := ix.tree.InsertTx(tx, key, rid); err != nil {
			// Roll back the partial work of this row, still under tx.
			for j := 0; j < k; j++ {
				_, _ = indexes[j].tree.DeleteTx(tx, access.EncodeKey(row[indexes[j].colIdx]), rid)
			}
			_ = h.Delete(tx, rid)
			return err
		}
	}
	return nil
}

// coerce adapts a value to a column type (int <-> float, NULL passes).
func coerce(v access.Value, t access.Type) (access.Value, error) {
	if v.IsNull() || v.Type == t {
		return v, nil
	}
	switch {
	case t == access.TypeFloat && v.Type == access.TypeInt:
		return access.NewFloat(float64(v.Int)), nil
	case t == access.TypeInt && v.Type == access.TypeFloat && v.Float == float64(int64(v.Float)):
		return access.NewInt(int64(v.Float)), nil
	}
	return access.Null(), fmt.Errorf("sql: cannot store %s into %s column", v.Type, t)
}

// matchTarget finds the rows of a table matching a WHERE predicate,
// through the same access path a SELECT would take. Every match is
// gathered before the caller writes, so an UPDATE that moves a row
// within the scanned range never meets it again.
func (e *Engine) matchTarget(ctx context.Context, tbl *catalog.Table, where exec.Expr) ([]access.RID, []access.Row, error) {
	h, err := e.heap(tbl)
	if err != nil {
		return nil, nil, err
	}
	path, err := e.accessPath(tbl, h, "", where)
	if err != nil {
		return nil, nil, err
	}
	cols := path.Columns()
	if where, err = exec.Bind(where, cols); err != nil {
		return nil, nil, err
	}
	var rids []access.RID
	var rows []access.Row
	err = path.Each(ctx, func(rid access.RID, row access.Row) error {
		if where != nil {
			ok, err := exec.Truthy(where, row, cols)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		rids = append(rids, rid)
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rids, rows, nil
}

func (e *Engine) runUpdate(ctx context.Context, s *Update, tx *txn.Txn) (*Result, error) {
	tbl, err := e.cat.GetTable(s.Table)
	if err != nil {
		return nil, err
	}
	h, err := e.heap(tbl)
	if err != nil {
		return nil, err
	}
	indexes, err := e.openIndexes(tbl)
	if err != nil {
		return nil, err
	}
	rids, rows, err := e.matchTarget(ctx, tbl, s.Where)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(tbl.Columns))
	for i, c := range tbl.Columns {
		cols[i] = tbl.Name + "." + c.Name
	}
	setIdx := make([]int, len(s.Sets))
	for i, set := range s.Sets {
		ci, err := tbl.ColumnIndex(set.Column)
		if err != nil {
			return nil, err
		}
		setIdx[i] = ci
	}
	for k, rid := range rids {
		oldRow := rows[k]
		newRow := oldRow.Clone()
		for i, set := range s.Sets {
			v, err := set.Value.Eval(oldRow, cols)
			if err != nil {
				return nil, err
			}
			cv, err := coerce(v, tbl.Columns[setIdx[i]].Type)
			if err != nil {
				return nil, err
			}
			if tbl.Columns[setIdx[i]].NotNull && cv.IsNull() {
				return nil, fmt.Errorf("%w: %s.%s", ErrNotNull, tbl.Name, tbl.Columns[setIdx[i]].Name)
			}
			newRow[setIdx[i]] = cv
		}
		nrid, err := h.Update(tx, rid, access.EncodeRow(newRow))
		if err != nil {
			return nil, err
		}
		for _, ix := range indexes {
			oldKey := access.EncodeKey(oldRow[ix.colIdx])
			newKey := access.EncodeKey(newRow[ix.colIdx])
			if string(oldKey) == string(newKey) && nrid == rid {
				continue
			}
			if _, err := ix.tree.DeleteTx(tx, oldKey, rid); err != nil {
				return nil, err
			}
			if err := ix.tree.InsertTx(tx, newKey, nrid); err != nil {
				return nil, err
			}
		}
	}
	return &Result{Affected: len(rids)}, nil
}

func (e *Engine) runDelete(ctx context.Context, s *Delete, tx *txn.Txn) (*Result, error) {
	tbl, err := e.cat.GetTable(s.Table)
	if err != nil {
		return nil, err
	}
	h, err := e.heap(tbl)
	if err != nil {
		return nil, err
	}
	indexes, err := e.openIndexes(tbl)
	if err != nil {
		return nil, err
	}
	rids, rows, err := e.matchTarget(ctx, tbl, s.Where)
	if err != nil {
		return nil, err
	}
	for k, rid := range rids {
		if err := h.Delete(tx, rid); err != nil {
			return nil, err
		}
		for _, ix := range indexes {
			key := access.EncodeKey(rows[k][ix.colIdx])
			if _, err := ix.tree.DeleteTx(tx, key, rid); err != nil {
				return nil, err
			}
		}
	}
	return &Result{Affected: len(rids)}, nil
}
