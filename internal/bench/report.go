package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"time"
)

// ReportSchema identifies the BENCH_*.json layout; bump it on any
// incompatible field change so cross-PR comparison tools can tell.
const ReportSchema = "rulefit-bench/v1"

// Report is the machine-readable record of one benchmark run, written
// by scripts/bench.sh as BENCH_<stamp>.json and committed so the perf
// trajectory is tracked across PRs. Wall-clock numbers are only
// comparable across runs on the same hardware; the host fields exist so
// a comparison can check that first.
type Report struct {
	Schema    string `json:"schema"`
	Timestamp string `json:"timestamp"` // RFC 3339, UTC
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU and GOMAXPROCS describe the host the numbers were taken
	// on; solver speedups cannot exceed either.
	NumCPU     int          `json:"num_cpu"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Config     ReportConfig `json:"config"`
	// Series holds one sweep per (workers, capacity) pair.
	Series []SeriesRecord `json:"series"`
	// Speedups compares total sweep wall time per worker count against
	// the first (baseline) worker count.
	Speedups []SpeedupRecord `json:"speedups,omitempty"`
}

// ReportConfig records the workload parameters of the run.
type ReportConfig struct {
	K               int     `json:"k"`
	HostsPerEdge    int     `json:"hosts_per_edge"`
	Ingresses       int     `json:"ingresses"`
	PathsPerIngress int     `json:"paths_per_ingress"`
	RuleCounts      []int   `json:"rule_counts"`
	Capacities      []int   `json:"capacities"`
	Seeds           int     `json:"seeds"`
	Merging         bool    `json:"merging"`
	TimeLimitSec    float64 `json:"time_limit_sec"`
	Parallel        int     `json:"parallel"`
	WorkerCounts    []int   `json:"worker_counts"`
	// Scale is the cmd/experiments preset or numeric factor the sweep ran
	// at ("" for reports written before the field existed). Comparisons
	// across different scales are meaningless; diff tools warn on
	// mismatch.
	Scale string `json:"scale,omitempty"`
}

// SeriesRecord is one runtime-vs-rules sweep at a fixed capacity and
// solver worker count.
type SeriesRecord struct {
	Workers  int           `json:"workers"`
	Capacity int           `json:"capacity"`
	Points   []PointRecord `json:"points"`
}

// PointRecord is one swept parameter value with per-seed runs.
type PointRecord struct {
	Rules  int         `json:"rules"`
	MeanMS float64     `json:"mean_ms"`
	MinMS  float64     `json:"min_ms"`
	MaxMS  float64     `json:"max_ms"`
	Runs   []RunRecord `json:"runs"`
}

// RunRecord is one measured solve. The prune/gap breakdown fields were
// added after the schema's introduction; additions are backward
// compatible, so the schema string is unchanged.
type RunRecord struct {
	Seed         int64   `json:"seed"`
	Status       string  `json:"status"`
	WallMS       float64 `json:"wall_ms"`
	TotalRules   int     `json:"total_rules"`
	Variables    int     `json:"variables"`
	Constraints  int     `json:"constraints"`
	Nodes        int     `json:"nodes"`
	SimplexIters int     `json:"simplex_iters"`
	Workers      int     `json:"workers"`
	// Node-outcome breakdown: branched + pruned_bound + pruned_infeasible
	// + integral_leaves + lost_subtrees == nodes.
	LURefactors      int `json:"lu_refactors"`
	Branched         int `json:"branched"`
	PrunedBound      int `json:"pruned_bound"`
	PrunedInfeasible int `json:"pruned_infeasible"`
	IntegralLeaves   int `json:"integral_leaves"`
	LostSubtrees     int `json:"lost_subtrees"`
	PrunedStale      int `json:"pruned_stale"`
	Incumbents       int `json:"incumbents"`
	// Solver-speed mechanisms (additive; absent in older reports):
	// reliability strong-branch trials and warm-started node LPs.
	StrongBranchEvals int    `json:"strong_branch_evals"`
	WarmStartReuses   int    `json:"warm_start_reuses"`
	StopReason        string `json:"stop_reason"`
	// Gap is 0 for proven optima, positive for anytime incumbents, and
	// -1 when undefined; best_bound is meaningful only when gap >= 0.
	BestBound float64 `json:"best_bound"`
	Gap       float64 `json:"gap"`
	// Search-profile fields (additive): the node that produced the
	// final incumbent (0 = none) and the root-relaxation gap the tree
	// search closed (-1 undefined).
	LastIncumbentAtNode int     `json:"last_incumbent_at_node"`
	RootGap             float64 `json:"root_gap"`
}

// SpeedupRecord compares one worker count's total sweep wall time
// against the baseline worker count of the same report.
type SpeedupRecord struct {
	Workers         int     `json:"workers"`
	BaselineWorkers int     `json:"baseline_workers"`
	TotalMS         float64 `json:"total_ms"`
	BaselineMS      float64 `json:"baseline_ms"`
	Speedup         float64 `json:"speedup"`
}

// BuildReport runs the Experiment 1 sweep once per worker count and
// assembles the machine-readable report. The placements themselves are
// identical across worker counts (the solver is deterministic in
// Workers); only the wall-clock columns differ. scale is the
// cmd/experiments preset or factor the sweep ran at, recorded in the
// config block so comparison tools can refuse cross-scale diffs.
func BuildReport(base Config, ruleCounts, capacities []int, seeds int, workerCounts []int, scale string) (*Report, error) {
	base = base.withDefaults()
	rep := &Report{
		Schema: ReportSchema,
		//lint:detsource run metadata by design; diffs strip the timestamp
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config: ReportConfig{
			K:               base.K,
			HostsPerEdge:    base.HostsPerEdge,
			Ingresses:       base.Ingresses,
			PathsPerIngress: base.PathsPerIngress,
			RuleCounts:      ruleCounts,
			Capacities:      capacities,
			Seeds:           seeds,
			Merging:         base.Opts.Merging,
			TimeLimitSec:    base.Opts.TimeLimit.Seconds(),
			Parallel:        base.Parallel,
			WorkerCounts:    workerCounts,
			Scale:           scale,
		},
	}
	totals := make(map[int]float64, len(workerCounts))
	for _, w := range workerCounts {
		cfg := base
		cfg.Opts.Workers = w
		series, err := Experiment1(cfg, ruleCounts, capacities, seeds)
		if err != nil {
			return nil, err
		}
		caps := make([]int, 0, len(series))
		for c := range series {
			caps = append(caps, c)
		}
		sort.Ints(caps)
		for _, c := range caps {
			sr := SeriesRecord{Workers: w, Capacity: c}
			for _, p := range series[c] {
				pr := PointRecord{
					Rules:  p.X,
					MeanMS: ms(p.Mean),
					MinMS:  ms(p.Min),
					MaxMS:  ms(p.Max),
				}
				for s, r := range p.Runs {
					pr.Runs = append(pr.Runs, RunRecord{
						Seed:                base.Seed + int64(s)*101,
						Status:              r.Status.String(),
						WallMS:              ms(r.Time),
						TotalRules:          r.TotalRules,
						Variables:           r.Variables,
						Constraints:         r.Constraints,
						Nodes:               r.Nodes,
						SimplexIters:        r.SimplexIters,
						Workers:             r.Workers,
						LURefactors:         r.LURefactors,
						Branched:            r.Branched,
						PrunedBound:         r.PrunedBound,
						PrunedInfeasible:    r.PrunedInfeasible,
						IntegralLeaves:      r.IntegralLeaves,
						LostSubtrees:        r.LostSubtrees,
						PrunedStale:         r.PrunedStale,
						Incumbents:          r.Incumbents,
						StrongBranchEvals:   r.StrongBranchEvals,
						WarmStartReuses:     r.WarmStartReuses,
						StopReason:          r.StopReason,
						BestBound:           r.BestBound,
						Gap:                 r.Gap,
						LastIncumbentAtNode: r.LastIncumbentAtNode,
						RootGap:             r.RootGap,
					})
					totals[w] += ms(r.Time)
				}
				sr.Points = append(sr.Points, pr)
			}
			rep.Series = append(rep.Series, sr)
		}
	}
	if len(workerCounts) > 1 {
		baseW := workerCounts[0]
		for _, w := range workerCounts[1:] {
			sp := SpeedupRecord{
				Workers:         w,
				BaselineWorkers: baseW,
				TotalMS:         totals[w],
				BaselineMS:      totals[baseW],
			}
			if totals[w] > 0 {
				sp.Speedup = totals[baseW] / totals[w]
			}
			rep.Speedups = append(rep.Speedups, sp)
		}
	}
	return rep, nil
}

// WriteJSON writes the report, indented for diff-friendly commits.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
