// Fullfledged: the "DBMS bundled with extensions" scenario of Section 4
// — a relational core plus the replication extension service of
// Figure 2, and a live adaptation when the primary store fails.
package main

import (
	"context"
	"fmt"
	"log"

	sbdms "repro"
	"repro/internal/replicate"
	"repro/internal/storage"
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

	// --- Replication extension ---------------------------------------------
	replicaDisk, err := storage.OpenDisk(storage.NewMemDevice())
	if err != nil {
		log.Fatal(err)
	}
	replica := replicate.NewReplica("replica-1", replicaDisk)
	shipper := replicate.NewShipper(db.Log())
	shipper.Attach(replica)
	if _, err := db.Exec(ctx, "INSERT INTO sensors VALUES (3, 'attic')"); err != nil {
		log.Fatal(err)
	}
	if err := db.Log().Flush(db.Log().NextLSN()); err != nil {
		log.Fatal(err)
	}
	n, err := shipper.Ship()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replication: shipped %d log records, replica lag=%d bytes\n", n, shipper.Lag(replica))

	// --- Live adaptation (Figure 7) ------------------------------------------
	res, err := sbdms.ScenarioAdaptation(ctx, db, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adaptation: %s\n", res)
	fmt.Println("fullfledged instance exercised its relational core, replication and adaptation")
}
