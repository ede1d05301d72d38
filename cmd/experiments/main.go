// Command experiments regenerates the paper's evaluation (§V): the
// runtime-scaling figures (7–11), the rule-merging table (Table II), the
// incremental-deployment study (Experiment 5), and the baseline
// comparison the paper closes with.
//
// Absolute runtimes differ from the paper's CPLEX-on-Xeon setup (the
// solvers here are pure Go, built from scratch); the experiments
// reproduce the qualitative shapes. Scale presets:
//
//	-scale small   fast sanity pass (default; minutes)
//	-scale medium  larger fat-trees, longer sweeps
//	-scale paper   paper-sized parameters (hours; not recommended)
//	-scale 0.5     paper workload scaled by a factor in (0, 1]
//	               (keeps the paper's arity; CI's paper-scale smoke)
//
// Usage:
//
//	experiments [-exp all|1|2|3|4|5|6] [-scale small|medium|paper]
//	            [-k 4] [-seeds 3] [-backend ilp|sat] [-timeout 60s]
//	            [-rules 50] [-caps 100] [-json out.json]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	            [-trace out.jsonl] [-metrics]
//
// Sweeps solve one instance at a time, and each solve's branch & bound
// pool runs min(GOMAXPROCS, 16) workers. -json runs the Experiment 1
// sweep once and writes the machine-readable report scripts/bench.sh
// commits as BENCH_<stamp>.json; each run record carries the solver's
// stop reason, prune breakdown, and final bound gap.
//
// -trace appends every solve's event stream, one solve after another,
// to one JSONL file. -metrics attaches one metrics registry to every
// solve's event stream, the way -trace attaches its writer, and prints
// the registry's Prometheus-text solver counters when the run
// finishes. -cpuprofile and -memprofile write pprof files; -cpuprofile
// holds the one CPU profile the Go runtime allows per process for the
// whole run.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"rulefit/internal/bench"
	"rulefit/internal/core"
	"rulefit/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// preset bundles the sweep parameters for one scale.
type preset struct {
	base       bench.Config
	ruleCounts []int
	exp1Caps   []int
	pathCounts []int
	exp2Caps   []int
	mergeRules []int
	exp3Caps   []int
	exp4Caps   []int
	installs   []int
	reroutes   []int
}

func presets(scale string, k int, timeout time.Duration, backend core.Backend) (*preset, error) {
	base := bench.Config{Seed: 0}
	base.Opts.TimeLimit = timeout
	base.Opts.Backend = backend
	switch scale {
	case "small":
		base.K = 4
		base.Ingresses = 8
		base.PathsPerIngress = 8
		base.Rules = 20
		return &preset{
			base:       base,
			ruleCounts: []int{5, 10, 15, 20, 25, 30},
			exp1Caps:   []int{25, 100},
			pathCounts: []int{16, 32, 48, 64, 80, 96},
			exp2Caps:   []int{25, 100},
			mergeRules: []int{1, 2, 3, 4, 5, 6},
			exp3Caps:   []int{8, 9, 10},
			exp4Caps:   []int{10, 15, 20, 25, 30, 40, 100, 200},
			installs:   []int{8, 16, 32},
			reroutes:   []int{1, 2, 4},
		}, nil
	case "medium":
		base.K = 8
		base.Ingresses = 16
		base.PathsPerIngress = 8
		base.Rules = 20
		return &preset{
			base:       base,
			ruleCounts: []int{10, 20, 30, 40},
			exp1Caps:   []int{40, 200},
			pathCounts: []int{32, 64, 128, 192},
			exp2Caps:   []int{40, 200},
			mergeRules: []int{2, 4, 6, 8},
			exp3Caps:   []int{10, 12, 14},
			exp4Caps:   []int{20, 30, 40, 60, 100, 300},
			installs:   []int{16, 32, 64},
			reroutes:   []int{1, 4, 8},
		}, nil
	case "paper":
		return paperPreset(base, k, 1), nil
	default:
		// A numeric scale is a fraction of the paper workload: -scale 0.5
		// keeps the paper's fat-tree arity but halves the ingress, path,
		// and rule counts (CI's paper-scale smoke runs one such point).
		alpha, err := strconv.ParseFloat(scale, 64)
		if err != nil || alpha <= 0 || alpha > 1 {
			return nil, fmt.Errorf("invalid -scale %q: want small, medium, paper, or a paper-workload factor in (0, 1]", scale)
		}
		return paperPreset(base, k, alpha), nil
	}
}

// paperPreset builds the paper-sized sweep scaled by alpha in (0, 1]:
// the fat-tree arity is kept (the paper's k = 8 topology), while the
// workload — ingresses, paths, rules, and the swept parameter lists —
// shrinks proportionally.
func paperPreset(base bench.Config, k int, alpha float64) *preset {
	base.K = k
	if base.K == 0 {
		base.K = 8
	}
	base.Ingresses = scaleInt(128, alpha)
	base.PathsPerIngress = scaleInt(8, alpha)
	base.Rules = scaleInt(100, alpha)
	return &preset{
		base:       base,
		ruleCounts: scaleInts([]int{20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, alpha),
		exp1Caps:   scaleInts([]int{200, 1000}, alpha),
		pathCounts: scaleInts([]int{256, 512, 768, 1024, 1280, 1536, 1792, 2048}, alpha),
		exp2Caps:   scaleInts([]int{200, 500}, alpha),
		mergeRules: scaleInts([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, alpha),
		exp3Caps:   scaleInts([]int{65, 70, 75}, alpha),
		exp4Caps:   scaleInts([]int{50, 100, 200, 300, 400, 500, 750, 1000}, alpha),
		installs:   scaleInts([]int{64, 128, 256}, alpha),
		reroutes:   scaleInts([]int{1, 16, 32}, alpha),
	}
}

// scaleInt rounds v*alpha, clamped to at least 1 so no sweep dimension
// collapses to zero.
func scaleInt(v int, alpha float64) int {
	n := int(math.Round(float64(v) * alpha))
	if n < 1 {
		return 1
	}
	return n
}

// scaleInts scales a swept parameter list, deduplicating collisions
// introduced by the rounding (the list stays sorted: inputs are).
func scaleInts(vs []int, alpha float64) []int {
	out := make([]int, 0, len(vs))
	for _, v := range vs {
		n := scaleInt(v, alpha)
		if len(out) == 0 || out[len(out)-1] != n {
			out = append(out, n)
		}
	}
	return out
}

func run() error {
	var (
		exp        = flag.String("exp", "all", "experiment to run: all, 1, 2, 3, 4, 5, 6")
		scale      = flag.String("scale", "small", "parameter scale: small, medium, paper, or a paper-workload factor in (0, 1]")
		k          = flag.Int("k", 0, "override fat-tree arity for -scale paper")
		seeds      = flag.Int("seeds", 3, "instances per point (the paper uses 5)")
		backend    = flag.String("backend", "ilp", "solver backend: ilp or sat")
		timeout    = flag.Duration("timeout", 60*time.Second, "per-solve time limit")
		csvDir     = flag.String("csv", "", "also write CSV series into this directory")
		rulesOver  = flag.String("rules", "", "override the Experiment 1 rule-count sweep (comma-separated); CI's paper-scale smoke uses this to run a single Fig. 7 point")
		capsOver   = flag.String("caps", "", "override the Experiment 1 capacity sweep (comma-separated)")
		jsonOut    = flag.String("json", "", "write a machine-readable Experiment 1 report to this file and exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut   = flag.String("trace", "", "append all solver event streams (JSONL) to this file")
		metrics    = flag.Bool("metrics", false, "print Prometheus-text solver counters on exit")
	)
	flag.Parse()

	rulesList, err := parseIntList("-rules", *rulesOver)
	if err != nil {
		return err
	}
	capsList, err := parseIntList("-caps", *capsOver)
	if err != nil {
		return err
	}
	be, err := core.ParseBackend(*backend)
	if err != nil {
		return err
	}
	var reg *obs.Metrics
	if *metrics {
		reg = obs.NewMetrics()
		defer func() {
			if err := reg.WritePrometheus(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	p, err := presets(*scale, *k, *timeout, be)
	if err != nil {
		return err
	}
	if rulesList != nil {
		p.ruleCounts = rulesList
	}
	if capsList != nil {
		p.exp1Caps = capsList
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		jw := obs.NewJSONLWriter(f)
		p.base.Opts.SolverSink = jw
		defer func() {
			if err := jw.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: trace:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: trace:", err)
			}
		}()
	}
	if reg != nil {
		p.base.Opts.SolverSink = obs.Multi(p.base.Opts.SolverSink, reg)
	}

	if *jsonOut != "" {
		rep, err := bench.BuildReport(p.base, p.ruleCounts, p.exp1Caps, *seeds, *scale)
		if err != nil {
			return err
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	want := func(e string) bool { return *exp == "all" || *exp == e }

	if want("1") {
		for _, kk := range exp1Arities(*scale, *k) {
			base := p.base
			base.K = kk
			series, err := bench.Experiment1(base, p.ruleCounts, p.exp1Caps, *seeds)
			if err != nil {
				return err
			}
			title := fmt.Sprintf("Experiment 1 (Figs. 7-9 analogue): runtime vs #rules, fat-tree k=%d, %d ingresses x %d paths",
				kk, base.Ingresses, base.PathsPerIngress)
			fmt.Println(bench.RenderSeries(title, "#rules", series))
			if err := writeCSV(*csvDir, fmt.Sprintf("exp1_k%d.csv", kk), "rules", series); err != nil {
				return err
			}
		}
	}
	if want("2") {
		series, err := bench.Experiment2(p.base, p.pathCounts, p.exp2Caps)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderSeries("Experiment 2 (Fig. 10 analogue): runtime vs #paths", "#paths", series))
		if err := writeCSV(*csvDir, "exp2.csv", "paths", series); err != nil {
			return err
		}
	}
	if want("3") {
		base := p.base
		base.PathsPerIngress = 4
		base.Rules = 8
		cells, err := bench.Experiment3(base, p.mergeRules, p.exp3Caps)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTable2(cells))
		if *csvDir != "" {
			f, err := os.Create(filepath.Join(*csvDir, "exp3.csv"))
			if err != nil {
				return err
			}
			if err := bench.WriteTable2CSV(f, cells); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if want("4") {
		pts, err := bench.Experiment4(p.base, p.exp4Caps, *seeds)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderPoints("Experiment 4 (Fig. 11 analogue): runtime vs switch capacity", "C", pts))
		if err := writeCSV(*csvDir, "exp4.csv", "capacity", map[int][]bench.Point{0: pts}); err != nil {
			return err
		}
	}
	if want("5") {
		base := p.base
		base.Capacity = 40
		res, err := bench.Experiment5(base, p.installs, p.reroutes)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderExp5(res))
	}
	if want("6") {
		res, err := bench.Baselines(p.base)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderBaselines(res))
	}
	return nil
}

// parseIntList parses an optional comma-separated list of positive
// ints, returning nil (no override) for the empty string.
func parseIntList(name, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad %s entry %q: want positive integers", name, part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s is empty", name)
	}
	return out, nil
}

// writeCSV emits a series into dir/name when -csv is set.
func writeCSV(dir, name, xLabel string, series map[int][]bench.Point) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := bench.WriteCSV(f, xLabel, series); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// exp1Arities returns the fat-tree sizes standing in for the paper's
// k = 8, 16, 32 figures at each scale.
func exp1Arities(scale string, override int) []int {
	if override != 0 {
		return []int{override}
	}
	switch scale {
	case "small":
		return []int{4}
	case "medium":
		return []int{4, 6, 8}
	case "paper":
		return []int{8, 16, 32}
	default:
		// Numeric scale: one arity, the paper's base topology.
		return []int{8}
	}
}
