// Package load is the deterministic load harness behind cmd/ruleload:
// it replays randgen-seeded placement workloads through one Target, a
// live ruleplaced daemon or the same decode/solve/encode path
// in-process (for CI), in closed-loop (fixed-concurrency) or open-loop
// (fixed-RPS) mode. It prints the latency percentiles of each status
// interval live, and emits a machine-readable rulefit-load/v1 report
// whose per-request trace IDs join 1:1 with the daemon's request logs.
// A sweep mode steps offered concurrency up to the admission knee and
// records served capacity (see sweep.go); a delta mode measures
// session deltas against cold re-solves (see delta.go).
//
// Determinism story: the workload is a pure function of the seed, and
// every response's placement is hashed so two runs of the same
// workload can be diffed byte-for-byte (cmd/benchdiff). Wall-clock
// fields are observational and compared only through the shared
// bench noise model.
package load

import (
	"encoding/json"
	"io"

	"rulefit/internal/bench"
	"rulefit/internal/obs"
)

// ReportSchema identifies the rulefit-load/v1 layout; bump it on any
// incompatible field change so comparison tools can tell.
const ReportSchema = "rulefit-load/v1"

// Report is the machine-readable record of one load run.
type Report struct {
	bench.Envelope
	Config   ConfigRecord   `json:"config"`
	Workload WorkloadRecord `json:"workload"`

	// ElapsedSec and AchievedRPS measure the run; observational.
	ElapsedSec  float64 `json:"elapsed_sec"`
	AchievedRPS float64 `json:"achieved_rps"`

	// Outcome counts. Total = OK + Shed + Errors.
	Total  int `json:"total"`
	OK     int `json:"ok"`
	Shed   int `json:"shed"`
	Errors int `json:"errors"`

	// Latency is the client-observed request latency distribution
	// (seconds) over the whole run; the percentile fields are read off
	// it for quick scanning.
	Latency obs.HistogramSnapshot `json:"latency_seconds_hist"`
	P50MS   float64               `json:"p50_ms"`
	P90MS   float64               `json:"p90_ms"`
	P99MS   float64               `json:"p99_ms"`
	P999MS  float64               `json:"p999_ms"`

	// Strata break latency down by instance-size stratum.
	Strata []StratumRecord `json:"strata,omitempty"`

	// Requests holds one record per issued request, in issue order.
	// Sweep runs omit it (the sweep steps summarize instead).
	Requests []RequestRecord `json:"requests,omitempty"`

	// Sweep is present on shed-point sweep runs.
	Sweep *SweepRecord `json:"sweep,omitempty"`

	// Delta is present on delta-replay runs (the warm-vs-cold session
	// SLO measurement; see delta.go).
	Delta *DeltaRecord `json:"delta,omitempty"`
}

// ConfigRecord records the harness parameters of the run.
type ConfigRecord struct {
	Seed         int64   `json:"seed"`
	Requests     int     `json:"requests"`
	Repeat       int     `json:"repeat"`
	Concurrency  int     `json:"concurrency"`
	RPS          float64 `json:"rps,omitempty"`
	DurationSec  float64 `json:"duration_sec,omitempty"`
	Merging      bool    `json:"merging"`
	TimeLimitSec float64 `json:"time_limit_sec"`
	// Mode is "closed" (fixed concurrency), "open" (fixed RPS),
	// "sweep" (shed-point search), or "delta" (session warm-vs-cold
	// replay).
	Mode string `json:"mode"`
	// Target is "http" (a live daemon) or "inprocess" (core.Place).
	Target string `json:"target"`
}

// WorkloadRecord fingerprints the generated workload: identical seeds
// and request counts produce identical fingerprints, so comparison
// tools can refuse cross-workload diffs.
type WorkloadRecord struct {
	Seed        int64  `json:"seed"`
	Requests    int    `json:"requests"`
	Fingerprint string `json:"fingerprint"`
}

// StratumRecord is the latency distribution of one instance-size
// stratum.
type StratumRecord struct {
	Stratum  string                `json:"stratum"`
	Requests int                   `json:"requests"`
	Latency  obs.HistogramSnapshot `json:"latency_seconds_hist"`
}

// RequestRecord is one issued request: identity (index, seed,
// stratum), the trace ID echoed by the server, outcome, measured
// latency, the placement content hash, and the server's phase
// breakdown when it sent one.
type RequestRecord struct {
	Index   int    `json:"index"`
	Seed    int64  `json:"seed"`
	Stratum string `json:"stratum"`
	TraceID string `json:"trace_id"`
	Code    int    `json:"code"`
	// Status is the placement status ("optimal", "feasible",
	// "infeasible", "limit") or a transport outcome ("shed",
	// "bad_request", "error").
	Status string  `json:"status"`
	WallMS float64 `json:"wall_ms"`
	// PlacementHash is the FNV-1a hash of the placement JSON bytes
	// ("" for non-placement outcomes). Byte-identical placements hash
	// identically, so report diffs catch placement drift.
	PlacementHash string `json:"placement_hash,omitempty"`
	// Phases is the server-side wall attribution parsed from the
	// Server-Timing header (or read from the span tree in-process).
	Phases []PhaseMS `json:"phases,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// PhaseMS is one attributed phase of a request's server-side wall
// time, in pipeline order.
type PhaseMS struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// SweepRecord summarizes a shed-point sweep: the measured steps and
// the knee they bracket.
type SweepRecord struct {
	// ShedThreshold is the shed rate above which a concurrency level
	// counts as saturated.
	ShedThreshold float64 `json:"shed_threshold"`
	// StepRequests is the number of requests measured per step.
	StepRequests int `json:"step_requests"`
	// MaxConcurrency caps the doubling phase.
	MaxConcurrency int `json:"max_concurrency"`
	// KneeConcurrency is the largest offered concurrency whose shed
	// rate stayed below the threshold.
	KneeConcurrency int `json:"knee_concurrency"`
	// CapacityRPS is the achieved request rate at the knee;
	// observational.
	CapacityRPS float64 `json:"capacity_rps"`
	// Saturated is false when even MaxConcurrency never crossed the
	// threshold (the knee is then a lower bound).
	Saturated bool        `json:"saturated"`
	Steps     []SweepStep `json:"steps"`
}

// SweepStep is one measured concurrency level.
type SweepStep struct {
	Concurrency int     `json:"concurrency"`
	Requests    int     `json:"requests"`
	Shed        int     `json:"shed"`
	Errors      int     `json:"errors,omitempty"`
	ShedRate    float64 `json:"shed_rate"`
	AchievedRPS float64 `json:"achieved_rps"`
}

// WriteJSON writes the report, indented for diff-friendly commits.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport loads and schema-checks one rulefit-load/v1 file.
func ReadReport(path string) (*Report, error) { return bench.ReadJSON[Report](path, ReportSchema) }
