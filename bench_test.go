// Benchmarks regenerating the paper's evaluation (§V), one per table or
// figure, at a reduced default scale (see EXPERIMENTS.md for the scale
// mapping and cmd/experiments for larger runs). Each benchmark logs the
// rendered rows/series the paper reports on its first iteration; run
// with -v to see them:
//
//	go test -bench=. -benchmem -v
package rulefit_test

import (
	"sync"
	"testing"
	"time"

	"rulefit/internal/bench"
	"rulefit/internal/core"
)

// logOnce keeps benchmark output readable across b.N iterations.
var logOnce sync.Map

func logFirst(b *testing.B, key, text string) {
	b.Helper()
	if _, loaded := logOnce.LoadOrStore(key, true); !loaded {
		b.Log("\n" + text)
	}
}

// benchBase is the reduced-scale workload shared by the figure benches:
// a k=4 fat-tree (20 switches) with 8 ingress policies and 8 paths each.
func benchBase() bench.Config {
	cfg := bench.Config{K: 4, Ingresses: 8, PathsPerIngress: 8, Rules: 20, Seed: 0}
	cfg.Opts.TimeLimit = 120 * time.Second
	return cfg
}

// BenchmarkFig7 regenerates Figure 7 (runtime vs #rules, smallest
// fat-tree; paper: k=8, C∈{200,1000} — here k=4, C∈{25,100}). The
// tight series peaks near the feasibility boundary and collapses when
// the instance over-constrains (the paper's r=100→110 sudden drop).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := bench.Experiment1(benchBase(), []int{5, 10, 15, 20, 25, 30}, []int{25, 100}, 1)
		if err != nil {
			b.Fatal(err)
		}
		logFirst(b, "fig7", bench.RenderSeries("Fig. 7 analogue: runtime vs #rules (fat-tree k=4)", "#rules", series))
	}
}

// BenchmarkFig8 regenerates Figure 8 (middle network size; paper: k=16 —
// here k=6, 99 switches scaled down).
func BenchmarkFig8(b *testing.B) {
	cfg := benchBase()
	cfg.K = 6
	cfg.Ingresses = 12
	for i := 0; i < b.N; i++ {
		series, err := bench.Experiment1(cfg, []int{5, 10, 15}, []int{25, 100}, 1)
		if err != nil {
			b.Fatal(err)
		}
		logFirst(b, "fig8", bench.RenderSeries("Fig. 8 analogue: runtime vs #rules (fat-tree k=6)", "#rules", series))
	}
}

// BenchmarkFig9 regenerates Figure 9 (largest network; paper: k=32 —
// here k=8, 80 switches).
func BenchmarkFig9(b *testing.B) {
	cfg := benchBase()
	cfg.K = 8
	cfg.Ingresses = 16
	for i := 0; i < b.N; i++ {
		series, err := bench.Experiment1(cfg, []int{5, 10, 15}, []int{25, 100}, 1)
		if err != nil {
			b.Fatal(err)
		}
		logFirst(b, "fig9", bench.RenderSeries("Fig. 9 analogue: runtime vs #rules (fat-tree k=8)", "#rules", series))
	}
}

// BenchmarkFig10 regenerates Figure 10: runtime vs #paths at two
// capacities; the flat loose-capacity series is the paper's observation
// that path count matters little when switches are uncongested.
func BenchmarkFig10(b *testing.B) {
	cfg := benchBase()
	cfg.Rules = 15
	for i := 0; i < b.N; i++ {
		series, err := bench.Experiment2(cfg, []int{16, 32, 64, 96}, []int{25, 100})
		if err != nil {
			b.Fatal(err)
		}
		logFirst(b, "fig10", bench.RenderSeries("Fig. 10 analogue: runtime vs #paths", "#paths", series))
	}
}

// BenchmarkTable2 regenerates Table II: total rules and duplication
// overhead with and without merging across capacities, including the
// infeasible-made-feasible cells.
func BenchmarkTable2(b *testing.B) {
	cfg := benchBase()
	cfg.PathsPerIngress = 4
	cfg.Rules = 8
	for i := 0; i < b.N; i++ {
		cells, err := bench.Experiment3(cfg, []int{2, 4, 6}, []int{8, 9, 10})
		if err != nil {
			b.Fatal(err)
		}
		logFirst(b, "table2", bench.RenderTable2(cells))
	}
}

// BenchmarkFig11 regenerates Figure 11: runtime vs switch capacity; the
// rise-then-drop shape around the feasibility boundary is the result.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := bench.Experiment4(benchBase(), []int{10, 15, 20, 25, 30, 40, 100}, 1)
		if err != nil {
			b.Fatal(err)
		}
		logFirst(b, "fig11", bench.RenderPoints("Fig. 11 analogue: runtime vs capacity", "C", pts))
	}
}

// BenchmarkExp5Install regenerates Experiment 5's policy-installation
// study: batches of new single-path policies placed into spare capacity.
func BenchmarkExp5Install(b *testing.B) {
	cfg := benchBase()
	cfg.Capacity = 40
	for i := 0; i < b.N; i++ {
		res, err := bench.Experiment5(cfg, []int{8, 16, 32}, nil)
		if err != nil {
			b.Fatal(err)
		}
		logFirst(b, "exp5i", bench.RenderExp5(res))
	}
}

// BenchmarkExp5Modify regenerates Experiment 5's routing-change study:
// existing policies re-placed after their path sets change.
func BenchmarkExp5Modify(b *testing.B) {
	cfg := benchBase()
	cfg.Capacity = 40
	for i := 0; i < b.N; i++ {
		res, err := bench.Experiment5(cfg, nil, []int{1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
		logFirst(b, "exp5m", bench.RenderExp5(res))
	}
}

// BenchmarkBaselines regenerates §V's closing comparison: the optimizer
// against greedy ingress-first and p x r replication.
func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Baselines(benchBase())
		if err != nil {
			b.Fatal(err)
		}
		logFirst(b, "baselines", bench.RenderBaselines(res))
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out. ---

// ablationRun solves one fixed workload under the given options.
func ablationRun(b *testing.B, mutate func(*bench.Config)) bench.Result {
	b.Helper()
	cfg := benchBase()
	cfg.Rules = 15
	cfg.Capacity = 30
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := bench.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationBackendILP and ...SAT compare the two exact backends
// on identical instances (satisfiability mode, where both are fast).
func BenchmarkAblationBackendILP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablationRun(b, func(c *bench.Config) { c.Opts.Backend = core.BackendILP; c.Opts.SatisfyOnly = true })
	}
}

// BenchmarkAblationBackendSAT is the SAT side of the backend ablation.
func BenchmarkAblationBackendSAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablationRun(b, func(c *bench.Config) { c.Opts.Backend = core.BackendSAT; c.Opts.SatisfyOnly = true })
	}
}

// BenchmarkAblationPresolveOn/Off measure the ILP presolve contribution.
func BenchmarkAblationPresolveOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablationRun(b, nil)
	}
}

// BenchmarkAblationPresolveOff disables bound-propagation presolve.
func BenchmarkAblationPresolveOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablationRun(b, func(c *bench.Config) { c.Opts.DisablePresolve = true })
	}
}

// BenchmarkAblationSlicingOn/Off measure path-sliced policies (§IV-C):
// slicing shrinks the variable set when rules only overlap some routes.
func BenchmarkAblationSlicingOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ablationRun(b, func(c *bench.Config) { c.Opts.PathSlicing = true })
		logFirst(b, "sliceOn", renderVars("with slicing", res))
	}
}

// BenchmarkAblationSlicingOff is the unsliced side.
func BenchmarkAblationSlicingOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ablationRun(b, nil)
		logFirst(b, "sliceOff", renderVars("without slicing", res))
	}
}

// BenchmarkAblationRedundancyOn measures redundancy removal (Fig. 4's
// optional first stage) as a preprocessing ablation.
func BenchmarkAblationRedundancyOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablationRun(b, func(c *bench.Config) { c.Opts.RemoveRedundant = true })
	}
}

// BenchmarkAblationObjectiveTraffic solves with the hop-weighted
// objective instead of total rules (§IV-A4).
func BenchmarkAblationObjectiveTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablationRun(b, func(c *bench.Config) { c.Opts.Objective = core.ObjTraffic })
	}
}

// renderVars summarizes an ablation run's model size.
func renderVars(name string, res bench.Result) string {
	return name + ": " + res.Status.String() +
		", vars=" + itoa(res.Variables) + ", constraints=" + itoa(res.Constraints) +
		", rules=" + itoa(res.TotalRules)
}

// itoa avoids importing strconv in a _test file for one call site.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
