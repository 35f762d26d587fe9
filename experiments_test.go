package sbdms

import (
	"testing"
	"time"

	"repro/internal/netbind"
	"repro/internal/workload"
)

func TestMeasureKVReportsSaneNumbers(t *testing.T) {
	db := openDB(t, Coarse)
	if err := Preload(db, 100, 50); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewKV(workload.KVConfig{Seed: 1, Keys: 100, Mix: workload.MixA})
	m := MeasureKV(db, gen, 500)
	if m.Ops != 500 || m.Failures != 0 {
		t.Fatalf("measurement = %+v", m)
	}
	if m.OpsPerSec <= 0 || m.P50 <= 0 || m.P99 < m.P50 {
		t.Fatalf("stats broken: %+v", m)
	}
	if m.Granularity != Coarse || m.Binding != "local" {
		t.Fatalf("labels = %+v", m)
	}
	if m.String() == "" {
		t.Fatal("String")
	}
}

func TestMeasureKVCountsMissesNotFailures(t *testing.T) {
	// A read-only mix over an empty store: every read misses, none may
	// count as a failure.
	db := openDB(t, Monolithic)
	gen := workload.NewKV(workload.KVConfig{Seed: 2, Keys: 50, Mix: workload.MixC})
	m := MeasureKV(db, gen, 200)
	if m.Failures != 0 {
		t.Fatalf("misses counted as failures: %+v", m)
	}
}

func TestMeasureTCPRoundTrip(t *testing.T) {
	rtt, err := MeasureTCPRoundTrip(50)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || rtt > 100*time.Millisecond {
		t.Fatalf("rtt = %v, implausible for loopback", rtt)
	}
}

func TestGranularitySweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep opens 8 databases")
	}
	ms, rtt, err := GranularitySweep(workload.MixB, 200, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Fatalf("echo RTT = %v", rtt)
	}
	if len(ms) != 2*len(Granularities) {
		t.Fatalf("cells = %d", len(ms))
	}
	byKey := map[string]KVMeasurement{}
	for _, m := range ms {
		if m.Failures != 0 {
			t.Fatalf("failures: %v", m)
		}
		byKey[m.Binding+"/"+string(m.Granularity)] = m
	}
	// Every KV op crosses the kv boundary from Coarse on and the record
	// boundary from Layered on; Fine adds a disk call per pool miss or
	// dirty write-back.
	for g, want := range map[Granularity]float64{Monolithic: 0, Coarse: 1, Layered: 2, Fine: 2} {
		local, wire := byKey["local/"+string(g)], byKey[netbind.Protocol+"/"+string(g)]
		if local.HopsPerOp != 0 {
			t.Errorf("%s local: hops/op = %v, want 0", g, local.HopsPerOp)
		}
		if wire.HopsPerOp < want || (g != Fine && wire.HopsPerOp != want) {
			t.Errorf("%s over the wire: hops/op = %v, want %v", g, wire.HopsPerOp, want)
		}
		// Local cells must be faster than wire cells for any
		// service-based profile.
		if g != Monolithic && local.OpsPerSec <= wire.OpsPerSec {
			t.Errorf("%s: local %.0f <= wire %.0f op/s", g, local.OpsPerSec, wire.OpsPerSec)
		}
	}
	// Monolithic must beat layered over the wire (the paper's
	// granularity tradeoff).
	if byKey[netbind.Protocol+"/monolithic"].OpsPerSec <= byKey[netbind.Protocol+"/layered"].OpsPerSec {
		t.Fatal("granularity tradeoff shape missing over the wire")
	}
}

// TestFineHopsRepeatAtSameSeed: with no timer in the engine, a G1 cell's
// hop count is a function of the workload alone. Fine crosses the wire
// for every buffer miss and dirty write-back, so anything the engine
// did on its own clock would show here as run-to-run drift.
func TestFineHopsRepeatAtSameSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("four 20,000-op runs over loopback TCP")
	}
	const keys, ops, seed = 2000, 20000, 7
	for _, mix := range []struct {
		name string
		mix  workload.Mix
	}{{"YCSB-B", workload.MixB}, {"YCSB-A", workload.MixA}} {
		var hops [2]float64
		for run := range hops {
			m, err := MeasureProfile(Fine, true, mix.mix, keys, ops, seed)
			if err != nil {
				t.Fatal(err)
			}
			if m.Failures != 0 {
				t.Fatalf("%s run %d: %d failures", mix.name, run, m.Failures)
			}
			hops[run] = m.HopsPerOp
		}
		if hops[0] != hops[1] {
			t.Errorf("%s: fine hops/op %v then %v at the same seed", mix.name, hops[0], hops[1])
		}
		t.Logf("%s: fine hops/op %v", mix.name, hops[0])
	}
}
