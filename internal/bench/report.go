package bench

import (
	"encoding/json"
	"io"
	"sort"

	"rulefit/internal/ilp"
)

// ReportSchema identifies the BENCH_*.json layout; bump it on any
// incompatible field change so cross-PR comparison tools can tell.
const ReportSchema = "rulefit-bench/v1"

// Report is the machine-readable record of one benchmark run, written
// by scripts/bench.sh as BENCH_<stamp>.json and committed so the perf
// trajectory is tracked across PRs.
type Report struct {
	Envelope
	Config ReportConfig `json:"config"`
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

// RunRecord is one measured solve: what the bench harness measured,
// then the solver's ilp.Stats, whose JSON tags are this record's
// remaining keys. A counter added to ilp.Stats is an additive schema
// change (rerun the golden test with -update); the schema string is
// unchanged.
type RunRecord struct {
	Seed        int64   `json:"seed"`
	Status      string  `json:"status"`
	WallMS      float64 `json:"wall_ms"`
	TotalRules  int     `json:"total_rules"`
	Variables   int     `json:"variables"`
	Constraints int     `json:"constraints"`
	ilp.Stats
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
		Envelope: NewEnvelope(ReportSchema),
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
						Seed:        base.Seed + int64(s)*101,
						Status:      r.Status.String(),
						WallMS:      ms(r.Time),
						TotalRules:  r.TotalRules,
						Variables:   r.Variables,
						Constraints: r.Constraints,
						Stats:       r.Stats,
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
