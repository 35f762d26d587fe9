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
	if h, ok := e.heaps[t.HeapFile]; ok {
		e.mu.RUnlock()
		return h, nil
	}
	e.mu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.heapLocked(t)
}

func (e *Engine) heapLocked(t *catalog.Table) (*access.HeapFile, error) {
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

// ExecuteStmt executes a parsed statement. DML and SELECT run under the
// session transaction when one is open, otherwise under a per-statement
// auto-commit transaction.
func (e *Engine) ExecuteStmt(ctx context.Context, st Statement) (*Result, error) {
	e.mu.RLock()
	if ferr := e.failed; ferr != nil {
		e.mu.RUnlock()
		return nil, ferr
	}
	e.mu.RUnlock()
	switch s := st.(type) {
	case *Begin:
		return e.begin()
	case *Commit:
		return e.commitSession()
	case *Rollback:
		return e.rollbackSession()
	case *CreateTable:
		return e.createTable(s)
	case *CreateIndex:
		return e.createIndex(ctx, s)
	case *CreateView:
		return e.createView(s)
	case *Drop:
		return e.drop(s)
	}

	tx, auto, err := e.stmtTxn()
	if err != nil {
		return nil, err
	}
	res, err := e.runDMLOrQuery(ctx, st, tx)
	if auto {
		if err != nil {
			// Logical undo rolls the statement back through the live
			// access methods: in-memory tree state stays coherent, no
			// metadata reload is needed.
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

func (e *Engine) runDMLOrQuery(ctx context.Context, st Statement, tx *txn.Txn) (*Result, error) {
	switch s := st.(type) {
	case *Select:
		if err := e.lockTables(ctx, tx, selectTables(s), txn.Shared); err != nil {
			return nil, err
		}
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
		if err := e.lockTables(ctx, tx, []string{s.Table}, txn.Exclusive); err != nil {
			return nil, err
		}
		return e.runInsert(ctx, s, tx)
	case *Update:
		if err := e.lockTables(ctx, tx, []string{s.Table}, txn.Exclusive); err != nil {
			return nil, err
		}
		return e.runUpdate(ctx, s, tx)
	case *Delete:
		if err := e.lockTables(ctx, tx, []string{s.Table}, txn.Exclusive); err != nil {
			return nil, err
		}
		return e.runDelete(ctx, s, tx)
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", st)
}

func selectTables(s *Select) []string {
	var out []string
	for _, r := range s.From {
		out = append(out, r.Table)
	}
	return out
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

func (e *Engine) createTable(s *CreateTable) (*Result, error) {
	cols := make([]catalog.Column, len(s.Columns))
	for i, c := range s.Columns {
		t, err := access.ParseType(c.TypeName)
		if err != nil {
			return nil, err
		}
		cols[i] = catalog.Column{Name: c.Name, Type: t, NotNull: c.NotNull}
	}
	tbl := &catalog.Table{Name: s.Name, Columns: cols}
	if err := e.cat.CreateTable(tbl); err != nil {
		return nil, err
	}
	if _, err := e.heap(tbl); err != nil {
		return nil, err
	}
	return &Result{}, e.pool.FlushAll()
}

func (e *Engine) createIndex(ctx context.Context, s *CreateIndex) (*Result, error) {
	tbl, err := e.cat.GetTable(s.Table)
	if err != nil {
		return nil, err
	}
	colIdx, err := tbl.ColumnIndex(s.Column)
	if err != nil {
		return nil, err
	}
	tree, metaID, err := index.Create(e.pool, s.Unique)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.configureTreeLocked(tree)
	e.mu.Unlock()
	// Backfill from existing rows.
	h, err := e.heap(tbl)
	if err != nil {
		return nil, err
	}
	err = h.Scan(func(rid access.RID, rec []byte) error {
		row, err := access.DecodeRow(rec)
		if err != nil {
			return err
		}
		return tree.Insert(access.EncodeKey(row[colIdx]), rid)
	})
	if err != nil {
		_ = tree.Drop()
		return nil, err
	}
	def := catalog.IndexDef{Name: s.Name, Column: s.Column, MetaPage: metaID, Unique: s.Unique}
	if err := e.cat.AddIndex(tbl.Name, def); err != nil {
		_ = tree.Drop()
		return nil, err
	}
	e.mu.Lock()
	e.trees[metaID] = tree
	e.mu.Unlock()
	return &Result{}, e.pool.FlushAll()
}

func (e *Engine) createView(s *CreateView) (*Result, error) {
	if err := e.cat.CreateView(&catalog.View{Name: s.Name, Query: s.Query}); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) drop(s *Drop) (*Result, error) {
	switch s.Kind {
	case "TABLE":
		tbl, err := e.cat.DropTable(s.Name)
		if err != nil {
			return nil, err
		}
		for _, ix := range tbl.Indexes {
			tree, err := e.tree(ix)
			if err == nil {
				_ = tree.Drop()
			}
			e.mu.Lock()
			delete(e.trees, ix.MetaPage)
			if e.undoex != nil {
				e.undoex.Unregister(ix.MetaPage)
			}
			e.mu.Unlock()
		}
		e.mu.Lock()
		h := e.heaps[tbl.HeapFile]
		delete(e.heaps, tbl.HeapFile)
		e.mu.Unlock()
		if h == nil {
			h, err = access.OpenHeap(tbl.HeapFile, e.fm, e.pool)
			if err != nil {
				return nil, err
			}
		}
		if err := h.Drop(); err != nil {
			return nil, err
		}
		return &Result{}, e.pool.FlushAll()
	case "INDEX":
		def, _, err := e.cat.DropIndex(s.Name)
		if err != nil {
			return nil, err
		}
		tree, err := e.tree(def)
		if err == nil {
			_ = tree.Drop()
		}
		e.mu.Lock()
		delete(e.trees, def.MetaPage)
		if e.undoex != nil {
			e.undoex.Unregister(def.MetaPage)
		}
		e.mu.Unlock()
		return &Result{}, e.pool.FlushAll()
	case "VIEW":
		if err := e.cat.DropView(s.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	return nil, fmt.Errorf("sql: unsupported DROP %s", s.Kind)
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
