// Embedded: the small-footprint scenario of Section 4 — a device with a
// tiny buffer pool and a simulated battery. When the battery runs low,
// the device raises a low-resource alert and the coordinator redirects
// the workload to a standby service so "the system [stays]
// operational".
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	sbdms "repro"
	"repro/internal/core"
)

// Simulated battery: every operation drains one unit, and the alert
// fires once when a quarter of the capacity is left.
const (
	batteryCap = 300
	lowWater   = 0.25
)

func main() {
	ctx := context.Background()

	// Small footprint: 8 buffer frames, coarse decomposition.
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

	// A standby KV service over the same store: the direct path the
	// coordinator can steer the workload to without losing data.
	if err := db.DeployStandby(ctx, "kv-standby", map[string]string{"node": "standby"}); err != nil {
		log.Fatal(err)
	}

	// Drive a workload; every op drains the battery. On the alert the
	// device publishes a low-resource event attributed to the primary kv
	// service, and the kernel coordinator steers the workload away
	// (Figure 6 machinery, Section 4 trigger).
	battery, alerted := batteryCap, false
	served := map[string]int{}
	beforeAlert := 0 // readings acked before the alert
	var elapsed time.Duration
	for i := 0; i < 400; i++ {
		if battery == 0 {
			fmt.Println("battery exhausted — halting local ops")
			break
		}
		battery--
		if remaining := float64(battery) / batteryCap; remaining <= lowWater && !alerted {
			alerted = true
			fmt.Printf("!! low battery alert at %.0f%% — redirecting workload\n", remaining*100)
			db.Kernel().Bus().Publish(core.Event{
				Type:    core.EventLowResources,
				Subject: "battery",
				Attrs:   map[string]string{"service": "kv"},
			})
		}
		start := time.Now()
		err := db.Put(ctx, reading(i), []byte(fmt.Sprint(i)))
		elapsed += time.Since(start)
		if err != nil {
			log.Fatalf("op %d: %v", i, err)
		}
		if !alerted {
			beforeAlert++
		}
		served[currentProvider(db)]++
		time.Sleep(200 * time.Microsecond) // let the coordinator breathe
	}
	ops := batteryCap - battery
	fmt.Printf("battery: %d/%d units left after %d ops\n", battery, batteryCap, ops)
	fmt.Printf("ops served by provider: %v\n", served)
	fmt.Printf("mean put latency: %v\n", elapsed/time.Duration(ops))
	if served["kv-standby"] == 0 {
		log.Fatal("expected the standby to take over after the alert")
	}
	// The redirect moved the service, not the data: every reading
	// acked before the alert reads back through the standby.
	for i := 0; i < beforeAlert; i++ {
		if v, err := db.Get(ctx, reading(i)); err != nil || string(v) != fmt.Sprint(i) {
			log.Fatalf("after the redirect %s = %q, %v; want %d", reading(i), v, err, i)
		}
	}
	fmt.Printf("all %d readings acked before the alert read back\n", beforeAlert)
	fmt.Println("workload redirected successfully — system stayed operational")
}

// reading names the key of the i-th sensor reading.
func reading(i int) string { return fmt.Sprintf("reading-%03d", i) }

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
