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
	// Series holds one sweep per capacity.
	Series []SeriesRecord `json:"series"`
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
	// Scale is the cmd/experiments preset or numeric factor the sweep ran
	// at ("" for reports written before the field existed). Comparisons
	// across different scales are meaningless; diff tools warn on
	// mismatch.
	Scale string `json:"scale,omitempty"`
}

// SeriesRecord is one runtime-vs-rules sweep at a fixed capacity.
type SeriesRecord struct {
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
	// SolvePath is the route Place took (core.SolvePath): certified
	// (every per-policy fragment proven by counting, no solve),
	// fallback (the decomposition gave up and the joint MILP
	// answered) or joint (not decomposable).
	SolvePath string `json:"solve_path"`
	ilp.Stats
}

// BuildReport runs the Experiment 1 sweep once and assembles the
// machine-readable report. scale is the cmd/experiments preset or
// factor the sweep ran at, recorded in the config block so comparison
// tools can refuse cross-scale diffs.
func BuildReport(base Config, ruleCounts, capacities []int, seeds int, scale string) (*Report, error) {
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
			Scale:           scale,
		},
	}
	series, err := Experiment1(base, ruleCounts, capacities, seeds)
	if err != nil {
		return nil, err
	}
	caps := make([]int, 0, len(series))
	for c := range series {
		caps = append(caps, c)
	}
	sort.Ints(caps)
	for _, c := range caps {
		sr := SeriesRecord{Capacity: c}
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
					SolvePath:   string(r.SolvePath),
					Stats:       r.Stats,
				})
			}
			sr.Points = append(sr.Points, pr)
		}
		rep.Series = append(rep.Series, sr)
	}
	return rep, nil
}

// WriteJSON writes the report, indented for diff-friendly commits.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
