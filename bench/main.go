// Command bench is the repository's benchmark: five named workloads over
// the SBDMS request path, their end-to-end metrics (untraced) and an
// outside-in per-layer split (counters, a traced pass, layer probes).
// BENCHMARK.json at the repository root names the metrics and fixes their
// regression bounds; README.md in this directory documents everything.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// hostInfo is carried by every result file: numbers are this host's.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	FS         string `json:"fs"`
	Commit     string `json:"commit"`
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Host hostInfo     `json:"host"`
	Runs []*runResult `json:"runs"`
}

var fsNames = map[int64]string{
	0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
	0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
}

func host(dir string) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, FS: "unknown", Commit: "unknown"}
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) == nil {
		if name, ok := fsNames[int64(st.Type)]; ok {
			h.FS = name
		} else {
			h.FS = fmt.Sprintf("0x%x", int64(st.Type))
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifest struct {
	RunSeconds int     `json:"run_seconds"`
	EndToEnd   []bound `json:"end_to_end"`
	PerLayer   []bound `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func main() {
	var (
		cfg      config
		workload = flag.String("workload", "", "run one workload (default: all five)")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: counted + traced run, per-layer metrics")
		probes   = flag.Bool("probes", false, "run only the layer probes")
		check    = flag.Int("check", 0, "run the untraced suite N times and fail if any end-to-end metric disagrees by more than its bound")
		compare  = flag.Bool("compare", false, "compare two -json result files given as arguments: base, then candidate")
		jsonOut  = flag.String("json", "", "also write the results, with the host block, to this file")
		manPath  = flag.String("manifest", "BENCHMARK.json", "the benchmark manifest (bounds for -check and -compare)")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "op-stream seed")
	flag.Float64Var(&cfg.seconds, "seconds", 16, "length of the timed main phase")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "data"), "fresh store directories are created here")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "out"), "trace_<workload>.jsonl files are written here")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke-test sizes (results are not comparable)")
	flag.BoolVar(&cfg.verbose, "v", false, "print every round's and every kill cycle's figures to standard error")
	flag.Parse()

	// Ground rule: one process generates the load, on at most two cores.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	var err error
	switch {
	case *compare && flag.NArg() == 2:
		err = compareFiles(flag.Arg(0), flag.Arg(1), *manPath)
	case *compare:
		err = fmt.Errorf("-compare needs two result files")
	default:
		err = run(&cfg, *workload, *trace == 1, *probes, *check, *jsonOut, *manPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(cfg *config, workload string, traced, probes bool, check int, jsonOut, manPath string) error {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	ctx := context.Background()
	if probes {
		m := map[string]float64{}
		if err := runProbes(ctx, cfg, m); err != nil {
			return err
		}
		printMetrics(&runResult{Workload: "probes", Metrics: m}, perLayer)
		return nil
	}

	file := resultFile{Host: host(cfg.dir)}
	if workload != "" && check == 0 {
		sp := specByName(workload)
		if sp == nil {
			return fmt.Errorf("unknown workload %q", workload)
		}
		if cfg.quick {
			q := sp.quick()
			sp = &q
		}
		res, err := runOne(ctx, sp, cfg, traced)
		if err != nil {
			return err
		}
		file.Runs = append(file.Runs, res)
	} else {
		// Several runs: each in a process of its own, as the driver runs them.
		// The heap and GC pacing one workload leaves behind move the next
		// one's tails by tens of percent.
		for rep := 0; rep < max(check, 1); rep++ {
			for _, sp := range specs {
				if workload != "" && sp.name != workload {
					continue
				}
				res, err := runChild(cfg, sp.name, traced && check == 0)
				if err != nil {
					return err
				}
				file.Runs = append(file.Runs, res)
			}
		}
	}
	if jsonOut != "" {
		raw, err := json.MarshalIndent(&file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, raw, 0o644); err != nil {
			return err
		}
	}
	if check > 0 {
		man, err := readManifest(manPath)
		if err != nil {
			return err
		}
		return checkRepeats(&file, man)
	}
	if workload != "" {
		// The contract's result line: the last line of standard output.
		return printContractLine(file.Runs[0], traced)
	}
	return nil
}

// runChild runs one workload in a fresh copy of this program, prints its
// table and returns its result.
func runChild(cfg *config, name string, traced bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(cfg.dir, "result-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	args := []string{"-workload", name, "-json", tmp.Name(), "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-dir", cfg.dir, "-out", cfg.out,
		fmt.Sprintf("-quick=%v", cfg.quick), fmt.Sprintf("-v=%v", cfg.verbose)}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	// Everything but the child's last line, which is its contract line.
	if i := strings.LastIndexByte(strings.TrimRight(string(out), "\n"), '\n'); i >= 0 {
		os.Stdout.Write(out[:i+1])
	}
	raw, err := os.ReadFile(tmp.Name())
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil || len(f.Runs) != 1 {
		return nil, fmt.Errorf("%s: unreadable child result (%v)", name, err)
	}
	return f.Runs[0], nil
}

// runOne runs one workload once and prints its metrics.
func runOne(ctx context.Context, sp *spec, cfg *config, traced bool) (*runResult, error) {
	var res *runResult
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		res, err = runTraced(ctx, sp, cfg)
	} else {
		res, err = runUntraced(ctx, sp, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	if err := checkMetrics(res, defs); err != nil {
		return nil, err
	}
	printMetrics(res, defs)
	return res, nil
}

func printMetrics(res *runResult, defs []metricDef) {
	fmt.Printf("== %s seed=%d attempted=%d failed=%d fail_frac=%g\n", res.Workload, res.Seed,
		res.Attempted, res.Failed, float64(res.Failed)/math.Max(float64(res.Attempted), 1))
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Printf("  %-36s %14.4f %-6s", d.name, v, d.unit)
		for cl, n := range res.Samples {
			if strings.HasSuffix(d.name, "_us") && strings.HasPrefix(strings.TrimPrefix(d.name, "kv."), cl+"_p") {
				fmt.Printf(" n=%d", n)
			}
		}
		fmt.Println()
	}
}

func printContractLine(res *runResult, traced bool) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]mv{}}
	for _, d := range defs {
		line.Metrics[d.name] = mv{res.Metrics[d.name], d.unit}
	}
	raw, err := json.Marshal(&line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(raw))
	return err
}

// --- repeatability and comparison ---------------------------------------------

// spreadOf is how far repeated values of one metric disagree, as a share
// of their median: the interquartile distance with four or more values
// (Python's statistics.quantiles(v, n=4)), else max - min.
func spreadOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med := median(s)
	if med == 0 || len(s) < 2 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (q(0.75) - q(0.25)) / math.Abs(med)
}

// byWorkload groups a result file's untraced runs: workload -> metric -> values.
func byWorkload(f *resultFile) (order []string, vals map[string]map[string][]float64) {
	vals = map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
			order = append(order, r.Workload)
		}
		for k, v := range r.Metrics {
			vals[r.Workload][k] = append(vals[r.Workload][k], v)
		}
	}
	return order, vals
}

func checkRepeats(f *resultFile, man *manifest) error {
	order, vals := byWorkload(f)
	bad := 0
	for _, r := range f.Runs {
		if r.Failed > 0 {
			fmt.Printf("FAIL %s: %d of %d operations failed\n", r.Workload, r.Failed, r.Attempted)
			bad++
		}
	}
	fmt.Printf("\n%-15s %-14s %12s %12s %12s %8s %7s %s\n", "workload", "metric", "min", "median", "max", "spread", "bound", "spread/bound")
	for _, w := range order {
		for _, b := range man.EndToEnd {
			v := vals[w][b.Name]
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			sp := spreadOf(v)
			verdict := ""
			if sp > b.Bound {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-15s %-14s %12.4f %12.4f %12.4f %8.4f %7.2f %6.2f%s\n", w, b.Name, s[0], median(s), s[len(s)-1], sp, b.Bound, sp/b.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d (workload, metric) pairs disagree by more than their bound, or failed operations", bad)
	}
	return nil
}

func compareFiles(basePath, candPath, manPath string) error {
	man, err := readManifest(manPath)
	if err != nil {
		return err
	}
	load := func(p string) (*resultFile, error) {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		return &f, json.Unmarshal(raw, &f)
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cand, err := load(candPath)
	if err != nil {
		return err
	}
	order, bv := byWorkload(base)
	_, cv := byWorkload(cand)
	fmt.Printf("%-15s %-14s %12s %12s %8s %8s  %s\n", "workload", "metric", "base", "candidate", "ratio", "spread", "verdict")
	for _, w := range order {
		for _, b := range man.EndToEnd {
			bs, cs := bv[w][b.Name], cv[w][b.Name]
			if len(bs) == 0 || len(cs) == 0 {
				continue
			}
			bm, cm := median(bs), median(cs)
			worse := (cm - bm) / math.Abs(bm) // positive = candidate worse, for "lower is better"
			if b.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(spreadOf(bs), spreadOf(cs))
			verdict := "within bound"
			switch {
			case sp > b.Bound:
				verdict = "unresolved (spread > bound)"
			case worse > b.Bound:
				verdict = "regressed"
			case worse < -sp && worse < 0:
				verdict = "better"
			}
			fmt.Printf("%-15s %-14s %12.4f %12.4f %8.4f %8.4f  %s\n", w, b.Name, bm, cm, cm/bm, sp, verdict)
		}
	}
	return nil
}
