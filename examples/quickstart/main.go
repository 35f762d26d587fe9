// Quickstart: open an SBDMS instance, run SQL through the Data Service
// layer, use the KV access service, and inspect the service registry —
// the minimal tour of the architecture.
package main

import (
	"context"
	"fmt"
	"log"

	sbdms "repro"
)

func main() {
	ctx := context.Background()

	// Open a database composed of services at the layered granularity
	// (KV service -> record service -> native storage stack).
	db, err := sbdms.Open(sbdms.Options{Granularity: sbdms.Layered})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close(ctx)

	// The architecture is visible: every capability is a registered
	// service with a contract.
	fmt.Println("== registered services ==")
	for _, reg := range db.Kernel().Registry().All() {
		fmt.Printf("  %-16s provides %s\n", reg.Name, reg.Interface)
	}

	// SQL through the Data Service.
	mustExec := func(q string) {
		if _, err := db.Exec(ctx, q); err != nil {
			log.Fatalf("%s: %v", q, err)
		}
	}
	mustExec("CREATE TABLE books (id INT NOT NULL, title TEXT, year INT)")
	mustExec("CREATE INDEX idx_year ON books (year)")
	mustExec(`INSERT INTO books VALUES
		(1, 'Component Database Systems', 2001),
		(2, 'Readings in Database Systems', 1988),
		(3, 'Software Architecture in Practice', 1998),
		(4, 'The Implementation of POSTGRES', 1990)`)

	res, err := db.Exec(ctx, "SELECT title, year FROM books WHERE year >= 1990 ORDER BY year")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== books since 1990 ==")
	for _, row := range res.Rows {
		fmt.Printf("  %-40s %d\n", row[0].Str, row[1].Int)
	}

	// Aggregation and views.
	mustExec("CREATE VIEW modern AS SELECT id, title FROM books WHERE year >= 1995")
	res, err = db.Exec(ctx, "SELECT COUNT(*) FROM modern")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmodern books: %d\n", res.Rows[0][0].Int)

	// The KV access service, reached through the same architecture.
	if err := db.Put(ctx, "greeting", []byte("hello from SBDMS")); err != nil {
		log.Fatal(err)
	}
	v, err := db.Get(ctx, "greeting")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kv: greeting = %q\n", v)

	// Buffer pool statistics via the monitoring surface.
	st := db.Pool().Stats()
	fmt.Printf("\nbuffer pool: hits=%d misses=%d hitRate=%.1f%% policy=%s\n",
		st.Hits, st.Misses, st.HitRate()*100, db.Pool().PolicyName())
}
