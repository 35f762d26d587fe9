package sbdms

import (
	"testing"
	"time"

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
	ms, err := GranularitySweepStorage(workload.MixB, 200, 500, 1, SweepStorage{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2*len(Granularities) {
		t.Fatalf("cells = %d", len(ms))
	}
	// Local cells must be much faster than delay-bound cells for any
	// service-based profile.
	byKey := map[string]KVMeasurement{}
	for _, m := range ms {
		key := string(m.Granularity)
		if m.Binding == "local" {
			byKey["local/"+key] = m
		} else {
			byKey["tcp/"+key] = m
		}
	}
	for _, g := range []Granularity{Coarse, Layered, Fine} {
		local, tcp := byKey["local/"+string(g)], byKey["tcp/"+string(g)]
		if local.OpsPerSec <= tcp.OpsPerSec {
			t.Fatalf("%s: local %.0f <= tcp %.0f op/s", g, local.OpsPerSec, tcp.OpsPerSec)
		}
	}
	// Monolithic must beat layered under the TCP binding (the paper's
	// granularity tradeoff).
	if byKey["tcp/monolithic"].OpsPerSec <= byKey["tcp/layered"].OpsPerSec {
		t.Fatal("granularity tradeoff shape missing under TCP binding")
	}
}
