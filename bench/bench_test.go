package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesCode: BENCHMARK.json and the metric lists in spec.go
// name the same workloads and metrics, with the same units.
func TestManifestMatchesCode(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []bound
		want []metricDef
	}{{"end_to_end", man.EndToEnd, endToEnd}, {"per_layer", man.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: manifest has %d metrics, code has %d", c.kind, len(c.got), len(c.want))
		}
		seen := map[string]bool{}
		for i, d := range c.want {
			b := c.got[i]
			if b.Name != d.name || b.Unit != d.unit {
				t.Errorf("%s[%d]: manifest %s (%s), code %s (%s)", c.kind, i, b.Name, b.Unit, d.name, d.unit)
			}
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: bad or repeated name %q", c.kind, d.name)
			}
			seen[d.name] = true
			if b.Better != "lower" && b.Better != "higher" {
				t.Errorf("%s: %s has direction %q", c.kind, d.name, b.Better)
			}
		}
	}
	for _, b := range man.EndToEnd {
		if b.Bound <= 0 || b.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", b.Name, b.Bound)
		}
	}
}

// TestSmoke runs every workload untraced and traced (probes included) at
// -quick sizes: every metric must be reported once, finite, and no
// operation may fail.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads")
	}
	dir := t.TempDir()
	cfg := &config{seed: 1, seconds: 0.3, dir: dir, out: filepath.Join(dir, "out"), quick: true}
	ctx := context.Background()
	for i := range specs {
		sp := specs[i].quick()
		for _, traced := range []bool{false, true} {
			var res *runResult
			var err error
			defs := endToEnd
			if traced {
				defs = perLayer
				res, err = runTraced(ctx, &sp, cfg)
			} else {
				res, err = runUntraced(ctx, &sp, cfg)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if err := checkMetrics(res, defs); err != nil {
				t.Error(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", sp.name, traced, res.Failed, res.Attempted)
			}
			if !traced {
				for _, d := range defs {
					if res.Metrics[d.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, d.name, res.Metrics[d.name])
					}
				}
				continue
			}
			if e := res.Metrics["bench.self_time_err_frac"]; e > 0.01 {
				t.Errorf("%s: span self times miss their root by %v", sp.name, e)
			}
			wantHops := map[storeKind]float64{kindKV: 2, kindSQL: 1, kindCluster: 0}[sp.kind]
			if h := res.Metrics["core.hops_per_op"]; h != wantHops {
				t.Errorf("%s: core.hops_per_op = %v, want %v", sp.name, h, wantHops)
			}
			if sp.name == "read_hot" {
				if b := res.Metrics["wal.bytes_per_write"]; b != 0 {
					t.Errorf("read_hot appended %v WAL bytes in the counted segment", b)
				}
				if r := res.Metrics["storage.reads_per_op"]; r >= 0.001 {
					t.Errorf("read_hot read the device %v times per op", r)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.out, "trace_"+sp.name+".jsonl")); err != nil {
				t.Error(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "out" {
			t.Errorf("store directory %s was left behind", e.Name())
		}
	}
}

// TestSpreadOf pins the quartile rule to Python's statistics.quantiles.
func TestSpreadOf(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// quantiles(v, n=4) = [2.75, 5.5, 8.25]; spread = 5.5/5.5.
	if got := spreadOf(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadOf = %v, want 1", got)
	}
}
