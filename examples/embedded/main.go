// Embedded: the small-footprint scenario of Section 4 — a device with a
// tiny buffer pool and a simulated battery. When the battery runs low,
// the monitoring service raises a low-resource alert and the
// coordinator redirects the workload to a standby service so "the
// system [stays] operational".
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	sbdms "repro"
	"repro/internal/core"
	"repro/internal/monitor"
)

func main() {
	ctx := context.Background()

	// Small footprint: 8 buffer frames, no WAL, coarse decomposition.
	db, err := sbdms.Open(sbdms.Options{
		Granularity:  sbdms.Coarse,
		BufferFrames: 8,
		Coordinator: core.CoordinatorConfig{
			ProbePeriod:  20 * time.Millisecond,
			ProbeTimeout: 100 * time.Millisecond,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close(ctx)
	fmt.Printf("embedded profile: %d services, %d buffer frames\n",
		db.Kernel().Registry().Len(), db.Pool().PoolSize())

	// A standby KV service on "another device" (in-memory stand-in).
	if err := deployStandby(ctx, db, sbdms.NewMemKV()); err != nil {
		log.Fatal(err)
	}

	// The simulated device: 300 battery units, alert at 25% remaining.
	// On alert, a monitoring service publishes a low-resource event
	// attributed to the primary kv service; the kernel coordinator
	// steers the workload away (Figure 6 machinery, Section 4 trigger).
	dev := monitor.NewDevice(monitor.DeviceConfig{
		Name: "edge-device", BatteryCap: 300, OpCost: 1, LowWater: 0.25,
		OnLow: func(resource string, remaining float64) {
			fmt.Printf("!! low %s alert at %.0f%% — redirecting workload\n", resource, remaining*100)
			db.Kernel().Bus().Publish(core.Event{
				Type:    core.EventLowResources,
				Subject: resource,
				Attrs:   map[string]string{"service": "kv"},
			})
		},
	})

	// Drive a workload; every op drains the battery.
	lat := monitor.NewLatencyRecorder(4096)
	served := map[string]int{}
	for i := 0; i < 400; i++ {
		if !dev.DoOp() {
			fmt.Println("battery exhausted — halting local ops")
			break
		}
		key := fmt.Sprintf("reading-%03d", i%64)
		start := time.Now()
		err := db.Put(ctx, key, []byte(fmt.Sprintf("%d", i)))
		lat.Record(time.Since(start))
		if err != nil {
			log.Fatalf("op %d: %v", i, err)
		}
		served[currentProvider(db)]++
		time.Sleep(200 * time.Microsecond) // let the coordinator breathe
	}
	remaining, capn := dev.Battery()
	fmt.Printf("battery: %.0f/%.0f units left after %d ops\n", remaining, capn, dev.Ops())
	fmt.Printf("ops served by provider: %v\n", served)
	fmt.Printf("latency: %v\n", lat.Summarize())
	if served["kv-standby"] == 0 {
		log.Fatal("expected the standby to take over after the alert")
	}
	fmt.Println("workload redirected successfully — system stayed operational")
}

// currentProvider asks the coordinator which providers are avoided to
// infer who serves (simplified introspection for the demo).
func currentProvider(db *sbdms.DB) string {
	st := db.Kernel().Coordinator().Status()
	for _, avoided := range st.AvoidedSvcs {
		if avoided == "kv" {
			return "kv-standby"
		}
	}
	return "kv"
}

func deployStandby(ctx context.Context, db *sbdms.DB, backend sbdms.KVBackend) error {
	svc := sbdms.NewKVService("kv-standby", backend)
	if err := svc.Start(ctx); err != nil {
		return err
	}
	return db.Kernel().Registry().RegisterService(svc, map[string]string{"node": "standby-device"})
}
