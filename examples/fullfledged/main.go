// Fullfledged: the "DBMS bundled with extensions" scenario of Section 4
// — a relational core plus the Extension Services of Figure 2
// (streaming, XML documents, stored procedures, replication), a custom
// monitoring service, and a live adaptation when the primary store
// fails.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	sbdms "repro"
	"repro/internal/access"
	"repro/internal/docstore"
	"repro/internal/proc"
	"repro/internal/replicate"
	"repro/internal/storage"
	"repro/internal/stream"
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

	// --- Streaming extension ---------------------------------------------
	temps := stream.New("temperatures")
	cq := &stream.ContinuousQuery{
		Name:      "avg-temp-window",
		Window:    stream.NewCountWindow(16),
		Every:     8,
		Aggregate: stream.AvgAgg(1),
	}
	stop := cq.Run(temps)
	for i := 0; i < 64; i++ {
		err := temps.Publish(stream.Tuple{Row: access.Row{
			access.NewInt(int64(i % 3)),
			access.NewFloat(20 + float64(i%10)),
		}})
		if err != nil {
			log.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	stop()
	results := cq.Results()
	fmt.Printf("streaming: %d windows aggregated; last avg=%.2f over %d tuples\n",
		len(results), results[len(results)-1][1].Float, results[len(results)-1][0].Int)

	// --- XML document extension -------------------------------------------
	docs, err := docstore.Open(db.FileManager(), db.Pool())
	if err != nil {
		log.Fatal(err)
	}
	err = docs.PutXML("deployment", `
		<deployment site="zurich">
		  <sensor id="0" kind="temp"/>
		  <sensor id="1" kind="temp"/>
		  <sensor id="2" kind="humidity"/>
		</deployment>`)
	if err != nil {
		log.Fatal(err)
	}
	nodes, err := docs.Query("deployment", "/deployment/sensor[@kind='temp']")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("docstore: %d temperature sensors registered in XML deployment doc\n", len(nodes))

	// --- Stored procedures -------------------------------------------------
	procs := proc.NewRegistry()
	err = procs.Register("celsius_to_fahrenheit", "converts a reading", func(ctx context.Context, args access.Row) ([]access.Row, error) {
		c, _ := args[0].AsFloat()
		return []access.Row{{access.NewFloat(c*9/5 + 32)}}, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	out, err := procs.Call(ctx, "celsius_to_fahrenheit", access.Row{access.NewFloat(21.5)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("procedure: 21.5C = %.1fF\n", out[0][0].Float)

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
	fmt.Println("fullfledged instance exercised all extension services")
}
