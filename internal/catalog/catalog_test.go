package catalog

import (
	"errors"
	"testing"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/storage"
)

func newCat(t *testing.T) (*Catalog, *storage.FileManager, *buffer.Manager) {
	t.Helper()
	d, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.New(d, 32, buffer.NewLRU())
	fm, err := storage.OpenFileManager(pool)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(fm, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, fm, pool
}

func usersTable() *Table {
	return &Table{
		Name: "Users",
		Columns: []Column{
			{Name: "id", Type: access.TypeInt, NotNull: true},
			{Name: "name", Type: access.TypeString},
		},
	}
}

func TestCreateGetDropTable(t *testing.T) {
	c, _, _ := newCat(t)
	if err := c.CreateTable(nil, usersTable()); err != nil {
		t.Fatal(err)
	}
	// Case-insensitive lookup.
	tbl, err := c.GetTable("users")
	if err != nil || tbl.Name != "Users" {
		t.Fatalf("GetTable = %v, %v", tbl, err)
	}
	if tbl.HeapFile == "" {
		t.Fatal("heap file must be assigned")
	}
	if err := c.CreateTable(nil, usersTable()); !errors.Is(err, ErrTableExists) {
		t.Fatalf("err = %v", err)
	}
	dropped, err := c.DropTable(nil, "USERS")
	if err != nil || dropped.Name != "Users" {
		t.Fatalf("Drop = %v, %v", dropped, err)
	}
	if _, err := c.GetTable("users"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.DropTable(nil, "users"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
}

func TestCreateTableValidation(t *testing.T) {
	c, _, _ := newCat(t)
	if err := c.CreateTable(nil, &Table{Name: ""}); err == nil {
		t.Fatal("empty table must fail")
	}
	if err := c.CreateTable(nil, &Table{Name: "t"}); err == nil {
		t.Fatal("no columns must fail")
	}
	dup := &Table{Name: "t", Columns: []Column{
		{Name: "a", Type: access.TypeInt}, {Name: "A", Type: access.TypeInt},
	}}
	if err := c.CreateTable(nil, dup); err == nil {
		t.Fatal("duplicate column (case-insensitive) must fail")
	}
}

func TestColumnIndexAndIndexLookup(t *testing.T) {
	tbl := usersTable()
	if i, err := tbl.ColumnIndex("NAME"); err != nil || i != 1 {
		t.Fatalf("ColumnIndex = %d, %v", i, err)
	}
	if _, err := tbl.ColumnIndex("zzz"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
	tbl.Indexes = []IndexDef{{Name: "idx", Column: "id", MetaPage: 9}}
	if ix, ok := tbl.Index("ID"); !ok || ix.MetaPage != 9 {
		t.Fatalf("Index = %+v, %v", ix, ok)
	}
	if _, ok := tbl.Index("name"); ok {
		t.Fatal("no index on name")
	}
}

func TestAddDropIndex(t *testing.T) {
	c, _, _ := newCat(t)
	if err := c.CreateTable(nil, usersTable()); err != nil {
		t.Fatal(err)
	}
	def := IndexDef{Name: "idx_id", Column: "id", MetaPage: 7, Unique: true}
	if err := c.AddIndex(nil, "users", def); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(nil, "users", def); !errors.Is(err, ErrIndexExists) {
		t.Fatalf("err = %v", err)
	}
	if err := c.AddIndex(nil, "users", IndexDef{Name: "idx2", Column: "nope"}); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
	if err := c.AddIndex(nil, "ghost", def); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	table, err := c.IndexTable("IDX_ID")
	if err != nil || table != "Users" {
		t.Fatalf("IndexTable = %s, %v", table, err)
	}
	got, err := c.DropIndex(nil, table, "IDX_ID")
	if err != nil || got.MetaPage != 7 {
		t.Fatalf("DropIndex = %+v, %v", got, err)
	}
	if _, err := c.DropIndex(nil, table, "idx_id"); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("err = %v", err)
	}
}

func TestViews(t *testing.T) {
	c, _, _ := newCat(t)
	if err := c.CreateView(nil, &View{Name: "v1", Query: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView(nil, &View{Name: "V1", Query: "SELECT 2"}); !errors.Is(err, ErrViewExists) {
		t.Fatalf("err = %v", err)
	}
	v, err := c.GetView("v1")
	if err != nil || v.Query != "SELECT 1" {
		t.Fatalf("GetView = %v, %v", v, err)
	}
	if err := c.DropView(nil, "v1"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropView(nil, "v1"); !errors.Is(err, ErrNoView) {
		t.Fatalf("err = %v", err)
	}
}

func TestCatalogPersistence(t *testing.T) {
	d, _ := storage.OpenDisk(storage.NewMemDevice())
	pool := buffer.New(d, 32, buffer.NewLRU())
	fm, _ := storage.OpenFileManager(pool)
	c, err := Open(fm, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(nil, usersTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(nil, "users", IndexDef{Name: "idx", Column: "id", MetaPage: 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView(nil, &View{Name: "v", Query: "SELECT id FROM users"}); err != nil {
		t.Fatal(err)
	}
	// Reopen over the same storage: everything must be back.
	c2, err := Open(fm, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := c2.GetTable("users")
	if err != nil || len(tbl.Columns) != 2 || len(tbl.Indexes) != 1 {
		t.Fatalf("reloaded table = %+v, %v", tbl, err)
	}
	if tbl.Indexes[0].MetaPage != 3 {
		t.Fatalf("index meta lost: %+v", tbl.Indexes[0])
	}
	if _, err := c2.GetView("v"); err != nil {
		t.Fatal("view lost")
	}
	// Drops persist too.
	if _, err := c2.DropTable(nil, "users"); err != nil {
		t.Fatal(err)
	}
	c3, err := Open(fm, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.GetTable("users"); !errors.Is(err, ErrNoTable) {
		t.Fatal("drop did not persist")
	}
	if _, err := c3.GetView("v"); err != nil {
		t.Fatal("view should survive the table drop")
	}
}
