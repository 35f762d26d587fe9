// Fullfledged: the "DBMS bundled with extensions" scenario of Section 4
// — a relational core and a live adaptation when the primary store
// fails. Nodes that serve each other over TCP and fail over are shown
// by examples/distributed; WAL-shipping replication is internal/cluster
// (README, "Running a cluster").
package main

import (
	"context"
	"fmt"
	"log"

	sbdms "repro"
)

func main() {
	ctx := context.Background()
	db, err := sbdms.Open(sbdms.Options{Granularity: sbdms.Layered, BufferFrames: 256})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close(ctx)

	// --- Relational core -------------------------------------------------
	for _, q := range []string{
		"CREATE TABLE sensors (id INT NOT NULL, location TEXT)",
		"INSERT INTO sensors VALUES (0, 'lab'), (1, 'roof'), (2, 'cellar')",
	} {
		if _, err := db.Exec(ctx, q); err != nil {
			log.Fatal(err)
		}
	}

	// --- Live adaptation (Figure 7) ------------------------------------------
	res, err := sbdms.ScenarioAdaptation(ctx, db, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adaptation: %s\n", res)
	if res.LostAcked != 0 || res.StaleReads != 0 || res.Failures != 0 {
		log.Fatal("the adaptation lost client data")
	}
	fmt.Println("fullfledged instance exercised its relational core and adaptation")
}
