// Command sbench regenerates the paper-figure and future-work
// experiments and prints the result tables. Run all of them with no
// arguments, or select one with -exp (f1, f2, f5, f6, f7, g1, g2, g3,
// g4, g5). Engine performance is judged by bench/run.sh, not here.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	sbdms "repro"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/workload"
)

var flagJSONDir = flag.String("json", ".", "directory for BENCH_<EXP>.json reports (empty = disabled)")

// benchRows accumulates the structured rows of the experiment
// currently running; main flushes them to BENCH_<EXP>.json after each
// runner, so every sbench invocation leaves machine-readable evidence
// beside the printed tables (the ROADMAP perf flywheel). Durations
// serialize as nanoseconds.
var benchRows []any

func record(row any) { benchRows = append(benchRows, row) }

func writeReport(dir, exp string, ops, keys int) error {
	rows := benchRows
	benchRows = nil
	if dir == "" || len(rows) == 0 {
		return nil
	}
	// The host block keeps trajectory comparisons across machines
	// honest: a 1-core CI runner and a 32-core workstation measure very
	// different things, and the JSON says which one produced the rows.
	type hostInfo struct {
		GOMAXPROCS int    `json:"gomaxprocs"`
		NumCPU     int    `json:"numCPU"`
		GoVersion  string `json:"goVersion"`
		OS         string `json:"os"`
		Arch       string `json:"arch"`
		Timestamp  string `json:"timestamp"`
	}
	rep := struct {
		Experiment string   `json:"experiment"`
		Timestamp  string   `json:"timestamp"`
		Host       hostInfo `json:"host"`
		Ops        int      `json:"ops"`
		Keys       int      `json:"keys"`
		Rows       []any    `json:"rows"`
	}{strings.ToUpper(exp), time.Now().UTC().Format(time.RFC3339), hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}, ops, keys, rows}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+strings.ToUpper(exp)+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func main() {
	exp := flag.String("exp", "all", "experiment id: f1|f2|f5|f6|f7|g1|g2|g3|g4|g5|all")
	ops := flag.Int("ops", 20000, "operations per measurement")
	keys := flag.Int("keys", 2000, "key space size")
	flag.Parse()

	runners := map[string]func(int, int) error{
		"f1": runF1, "f2": runF2, "f5": runF5, "f6": runF6, "f7": runF7,
		"g1": runG1, "g2": runG2, "g3": runG3, "g4": runG4, "g5": runG5,
	}
	order := []string{"f1", "f2", "f5", "f6", "f7", "g1", "g2", "g3", "g4", "g5"}
	sel := strings.ToLower(*exp)
	if sel == "all" {
		for _, id := range order {
			if err := runExp(runners[id], id, *ops, *keys); err != nil {
				fmt.Fprintf(os.Stderr, "experiment %s: %v\n", id, err)
				os.Exit(1)
			}
		}
		return
	}
	r, ok := runners[sel]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", sel)
		os.Exit(2)
	}
	if err := runExp(r, sel, *ops, *keys); err != nil {
		fmt.Fprintf(os.Stderr, "experiment %s: %v\n", sel, err)
		os.Exit(1)
	}
}

func runExp(r func(int, int) error, id string, ops, keys int) error {
	benchRows = nil
	if err := r(ops, keys); err != nil {
		return err
	}
	return writeReport(*flagJSONDir, id, ops, keys)
}

func header(title string) {
	fmt.Println()
	fmt.Println("=== " + title + " ===")
}

func measure(g sbdms.Granularity, binding core.Binding, bindName string, mix workload.Mix, keys, ops int) (sbdms.KVMeasurement, error) {
	db, err := sbdms.Open(sbdms.Options{
		Granularity:  g,
		BufferFrames: 512,
		Binding:      binding,
	})
	if err != nil {
		return sbdms.KVMeasurement{}, err
	}
	defer db.Close(context.Background())
	if err := sbdms.Preload(db, keys, 100); err != nil {
		return sbdms.KVMeasurement{}, err
	}
	gen := workload.NewKV(workload.KVConfig{Seed: 1, Keys: keys, Mix: mix, Zipfian: true})
	m := sbdms.MeasureKV(db, gen, ops)
	if bindName != "" {
		m.Binding = bindName
	}
	return m, nil
}

// runF1 reproduces Figure 1: the same engine as monolith, component
// system and service architecture.
func runF1(ops, keys int) error {
	header("F1 — Figure 1: architecture evolution (read-mostly zipfian KV)")
	for _, g := range []sbdms.Granularity{sbdms.Monolithic, sbdms.Coarse, sbdms.Layered} {
		label := map[sbdms.Granularity]string{
			sbdms.Monolithic: "monolithic DBMS",
			sbdms.Coarse:     "component DBMS (static service)",
			sbdms.Layered:    "service-based DBMS (late binding)",
		}[g]
		m, err := measure(g, nil, "", workload.MixB, keys, ops)
		if err != nil {
			return err
		}
		fmt.Printf("%-34s %s\n", label, m)
		record(struct {
			Label string `json:"label"`
			sbdms.KVMeasurement
		}{label, m})
	}
	return nil
}

// runF2 reproduces Figure 2: SQL through all four layers.
func runF2(ops, keys int) error {
	header("F2 — Figure 2: layered composition, SQL through the Data Service")
	ctx := context.Background()
	db, err := sbdms.Open(sbdms.Options{Granularity: sbdms.Layered})
	if err != nil {
		return err
	}
	defer db.Close(ctx)
	if _, err := db.Exec(ctx, "CREATE TABLE users (id INT, name TEXT, age INT)"); err != nil {
		return err
	}
	for _, row := range workload.UserRows(7, keys) {
		q := fmt.Sprintf("INSERT INTO users VALUES (%d, '%s', %d)", row[0].Int, row[1].Str, row[2].Int)
		if _, err := db.Exec(ctx, q); err != nil {
			return err
		}
	}
	if _, err := db.Exec(ctx, "CREATE INDEX idx_age ON users (age)"); err != nil {
		return err
	}
	queries := []string{
		"SELECT COUNT(*) FROM users",
		"SELECT COUNT(*) FROM users WHERE age = 30",
		"SELECT age, COUNT(*) AS n FROM users GROUP BY age ORDER BY n DESC LIMIT 3",
	}
	for _, q := range queries {
		start := time.Now()
		n := ops / 100
		if n < 1 {
			n = 1
		}
		var rows int
		for i := 0; i < n; i++ {
			res, err := db.Exec(ctx, q)
			if err != nil {
				return err
			}
			rows = len(res.Rows)
		}
		el := time.Since(start)
		fmt.Printf("%-72s %6d runs  %10.0f q/s  (%d rows)\n", q, n, float64(n)/el.Seconds(), rows)
		record(struct {
			Query       string  `json:"query"`
			Runs        int     `json:"runs"`
			QueriesPerS float64 `json:"queriesPerSec"`
			Rows        int     `json:"rows"`
		}{q, n, float64(n) / el.Seconds(), rows})
	}
	return nil
}

func runScenario(name string, run func(context.Context, *sbdms.DB, int) (sbdms.ScenarioResult, error), ops int) error {
	ctx := context.Background()
	db, err := sbdms.Open(sbdms.Options{Granularity: sbdms.Coarse})
	if err != nil {
		return err
	}
	defer db.Close(ctx)
	res, err := run(ctx, db, ops)
	if err != nil {
		return err
	}
	fmt.Println(res)
	fmt.Printf("  events: deployed=%d adaptorCreated=%d workflowSwitched=%d reconfigured=%d\n",
		res.Events[core.EventComponentDeployed], res.Events[core.EventAdaptorCreated],
		res.Events[core.EventWorkflowSwitched], res.Events[core.EventReconfigured])
	avail := float64(res.OpsBefore+res.OpsDuring+res.OpsAfter) /
		float64(res.OpsBefore+res.OpsDuring+res.OpsAfter+res.Failures) * 100
	fmt.Printf("  availability across the change: %.2f%%\n", avail)
	record(struct {
		Scenario        string  `json:"scenario"`
		AvailabilityPct float64 `json:"availabilityPct"`
		sbdms.ScenarioResult
	}{name, avail, res})
	return nil
}

func runF5(ops, keys int) error {
	header("F5 — Figure 5: flexibility by extension (runtime service publication)")
	return runScenario("f5", sbdms.ScenarioExtension, ops/20)
}

func runF6(ops, keys int) error {
	header("F6 — Figure 6: flexibility by selection (release resources)")
	return runScenario("f6", sbdms.ScenarioSelection, ops/20)
}

func runF7(ops, keys int) error {
	header("F7 — Figure 7: flexibility by adaptation (adaptor generation)")
	return runScenario("f7", sbdms.ScenarioAdaptation, ops/20)
}

// runG1 is the headline granularity x binding sweep.
func runG1(ops, keys int) error {
	header("G1 — granularity x binding sweep (paper Section 5 future work)")
	for _, mix := range []struct {
		name string
		m    workload.Mix
	}{
		{"read-mostly (YCSB-B)", workload.MixB},
		{"update-heavy (YCSB-A)", workload.MixA},
	} {
		fmt.Printf("-- workload: %s, %d zipfian keys --\n", mix.name, keys)
		ms, err := sbdms.GranularitySweep(mix.m, keys, ops, 1)
		if err != nil {
			return err
		}
		for _, m := range ms {
			fmt.Println(m)
			record(struct {
				Workload string `json:"workload"`
				sbdms.KVMeasurement
			}{mix.name, m})
		}
	}
	return nil
}

// runG2 contrasts the full profile with a small-footprint profile.
func runG2(ops, keys int) error {
	header("G2 — embedded small-footprint profile (Section 4)")
	for _, cfg := range []struct {
		label  string
		frames int
		g      sbdms.Granularity
	}{
		{"full profile   (512 frames, layered)", 512, sbdms.Layered},
		{"small footprint (8 frames, coarse)  ", 8, sbdms.Coarse},
	} {
		db, err := sbdms.Open(sbdms.Options{
			Granularity: cfg.g, BufferFrames: cfg.frames,
		})
		if err != nil {
			return err
		}
		if err := sbdms.Preload(db, keys, 100); err != nil {
			return err
		}
		gen := workload.NewKV(workload.KVConfig{Seed: 1, Keys: keys, Mix: workload.MixB, Zipfian: true})
		m := sbdms.MeasureKV(db, gen, ops)
		st := db.Pool().Stats()
		services := db.Kernel().Registry().Len()
		fmt.Printf("%s thr=%10.0f op/s p99=%-10v services=%d bufferHitRate=%.1f%%\n",
			cfg.label, m.OpsPerSec, m.P99, services, st.HitRate()*100)
		record(struct {
			Label         string  `json:"label"`
			Services      int     `json:"services"`
			BufferHitRate float64 `json:"bufferHitRate"`
			sbdms.KVMeasurement
		}{strings.TrimSpace(cfg.label), services, st.HitRate(), m})
		_ = db.Close(context.Background())
	}
	return nil
}

// runG3 measures client-proximity selection.
func runG3(ops, keys int) error {
	header("G3 — client-proximity selection (Section 4 distributed scenario)")
	ctx := context.Background()
	mkReg := func() *core.Registry {
		reg := core.NewRegistry(nil)
		mk := func(name, node string, delay time.Duration) {
			s := core.NewService(name, &core.Contract{
				Interface:  "g3.Store",
				Operations: []core.OpSpec{{Name: "get", In: "string", Out: "string"}},
			})
			s.Handle("get", func(ctx context.Context, req any) (any, error) {
				if delay > 0 {
					time.Sleep(delay)
				}
				return "v", nil
			})
			_ = s.Start(ctx)
			_ = reg.RegisterService(s, map[string]string{"node": node})
		}
		mk("a-far-store", "far", 300*time.Microsecond)
		mk("b-near-store", "near", 5*time.Microsecond)
		return reg
	}
	n := ops / 4
	for _, c := range []struct {
		label string
		sel   core.Selector
	}{
		{"without proximity selection (first provider)", nil},
		{"with proximity selection (node=near tag)    ", core.SelectByTag("node", "near", nil)},
	} {
		ref := core.NewRef(mkReg(), "g3.Store", c.sel)
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := ref.Invoke(ctx, "get", "k"); err != nil {
				return err
			}
		}
		el := time.Since(start)
		fmt.Printf("%s %6d calls  mean=%v\n", c.label, n, (el / time.Duration(n)).Round(time.Microsecond))
		record(struct {
			Label  string        `json:"label"`
			Calls  int           `json:"calls"`
			MeanNs time.Duration `json:"meanNs"`
		}{strings.TrimSpace(c.label), n, el / time.Duration(n)})
	}
	return nil
}

// runG4 is the call-path overhead ablation.
func runG4(ops, keys int) error {
	header("G4 — call-path overhead ablation (direct / cached ref / uncached ref / adaptor)")
	ctx := context.Background()
	svc := core.NewService("svc", &core.Contract{
		Interface:  "g4.Noop",
		Operations: []core.OpSpec{{Name: "noop", In: "nil", Out: "nil", Semantic: "g4.noop"}},
	})
	svc.Handle("noop", func(ctx context.Context, req any) (any, error) { return nil, nil })
	_ = svc.Start(ctx)
	reg := core.NewRegistry(nil)
	_ = reg.RegisterService(svc, nil)
	cached := core.NewRef(reg, "g4.Noop", nil)
	uncached := core.NewUncachedRef(reg, "g4.Noop", nil)
	required := &core.Contract{
		Interface:  "g4.Other",
		Operations: []core.OpSpec{{Name: "doIt", In: "nil", Out: "nil", Semantic: "g4.noop"}},
	}
	ad, err := core.GenerateAdaptor("ad", required, svc.Contract(), svc, core.NewRepository())
	if err != nil {
		return err
	}
	n := ops * 10
	paths := []struct {
		label string
		inv   core.Invoker
		op    string
	}{
		{"direct service call     ", svc, "noop"},
		{"cached late-bound ref   ", cached, "noop"},
		{"uncached late-bound ref ", uncached, "noop"},
		{"generated adaptor       ", ad, "doIt"},
	}
	for _, p := range paths {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := p.inv.Invoke(ctx, p.op, nil); err != nil {
				return err
			}
		}
		el := time.Since(start)
		fmt.Printf("%s %8d calls  %7.1f ns/call\n", p.label, n, float64(el.Nanoseconds())/float64(n))
		record(struct {
			Path      string  `json:"path"`
			Calls     int     `json:"calls"`
			NsPerCall float64 `json:"nsPerCall"`
		}{strings.TrimSpace(p.label), n, float64(el.Nanoseconds()) / float64(n)})
	}
	return nil
}

// runG5 measures the storage engine's internal scalability: contended
// Pin/Unpin on the automatically sharded buffer pool vs the
// single-mutex baseline, and concurrent committers under WAL group
// commit, each appending a commit record and flushing it.
func runG5(ops, keys int) error {
	header("G5 — storage concurrency: sharded buffer pool + WAL group commit")

	// Part 1: parallel Pin/Unpin over a hot page set.
	const frames = 512
	const npages = 2048
	fmt.Printf("-- buffer pool: %d frames, %d pages, zipf-free uniform touches --\n", frames, npages)
	for _, single := range []bool{true, false} {
		disk, err := storage.OpenDisk(storage.NewMemDevice())
		if err != nil {
			return err
		}
		var pool *buffer.Manager
		if single {
			pool = buffer.NewSharded(disk, frames, 1) // single-mutex baseline
		} else {
			pool = buffer.New(disk, frames, nil) // automatic stripe count
		}
		ids := make([]storage.PageID, npages)
		for i := range ids {
			if ids[i], err = disk.Allocate(); err != nil {
				return err
			}
		}
		for _, g := range []int{1, 4, 16} {
			per := ops / g
			start := time.Now()
			var wg sync.WaitGroup
			errs := make(chan error, g)
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < per; i++ {
						id := ids[rng.Intn(npages)]
						if _, err := pool.Pin(id); err != nil {
							errs <- err
							return
						}
						if err := pool.Unpin(id, false); err != nil {
							errs <- err
							return
						}
					}
				}(int64(w + 1))
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				return err
			}
			el := time.Since(start)
			fmt.Printf("shards=%-2d goroutines=%-2d %8d pin/unpin  %12.0f op/s\n",
				pool.NumShards(), g, per*g, float64(per*g)/el.Seconds())
			record(struct {
				Section    string  `json:"section"`
				Shards     int     `json:"shards"`
				Goroutines int     `json:"goroutines"`
				Ops        int     `json:"ops"`
				OpsPerSec  float64 `json:"opsPerSec"`
			}{"pin-unpin", pool.NumShards(), g, per * g, float64(per*g) / el.Seconds()})
		}
	}

	// Part 2: concurrent committers against a file-backed WAL.
	fmt.Println("-- WAL commit: file-backed log, one commit record per commit --")
	dir, err := os.MkdirTemp("", "sbench-g5")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, g := range []int{1, 4, 16} {
		segs, err := wal.NewFileSegmentDir(filepath.Join(dir, fmt.Sprintf("wal-%d", g)))
		if err != nil {
			return err
		}
		l, err := wal.OpenDir(segs, 0)
		if err != nil {
			return err
		}
		per := ops / 10 / g
		if per < 1 {
			per = 1
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, g)
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func(id uint64) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					lsn, err := l.Append(&wal.Record{Txn: id, Type: wal.RecCommit})
					if err != nil {
						errs <- err
						return
					}
					if err := l.Flush(lsn + 1); err != nil {
						errs <- err
						return
					}
				}
			}(uint64(w + 1))
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			return err
		}
		el := time.Since(start)
		commits := per * g
		fmt.Printf("group commit committers=%-2d %7d commits  %10.0f commit/s  %6d syncs (%.1f commits/sync)\n",
			g, commits, float64(commits)/el.Seconds(), l.Syncs(),
			float64(commits)/float64(l.Syncs()))
		record(struct {
			Section        string  `json:"section"`
			Mode           string  `json:"mode"`
			Committers     int     `json:"committers"`
			Commits        int     `json:"commits"`
			CommitsPerSec  float64 `json:"commitsPerSec"`
			Syncs          uint64  `json:"syncs"`
			CommitsPerSync float64 `json:"commitsPerSync"`
		}{"wal-commit", "group commit", g, commits,
			float64(commits) / el.Seconds(), l.Syncs(), float64(commits) / float64(l.Syncs())})
	}
	return nil
}
