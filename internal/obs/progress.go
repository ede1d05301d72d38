package obs

import "sync/atomic"

// ProgressSnapshot is one point-in-time view of a running solve,
// published from the solver's sequential sections and read by the
// daemon's /debug/solvez endpoint. All fields are observational; the
// solver never reads a snapshot back, so attaching a Progress cannot
// perturb the search (the same contract as Sink).
type ProgressSnapshot struct {
	// TraceID joins the snapshot to its request ("" when unscoped).
	TraceID string `json:"trace_id,omitempty"`
	// Phase is where the solve currently is: "admitted" (daemon slot
	// held, solver not yet entered), "presolve", "root_lp", "search",
	// or "done".
	Phase string `json:"phase"`
	// Nodes is the branch & bound nodes expanded so far.
	Nodes int `json:"nodes"`
	// Incumbent is the best integer objective so far; meaningful only
	// when HaveIncumbent.
	Incumbent     float64 `json:"incumbent"`
	HaveIncumbent bool    `json:"have_incumbent"`
	// BestBound is the current valid lower bound on the optimum.
	BestBound float64 `json:"best_bound"`
	// Gap is the relative optimality gap at the snapshot (-1 undefined,
	// e.g. before the first incumbent — the same sentinel as ilp.Stats).
	Gap float64 `json:"gap"`
	// Incumbents counts incumbent improvements so far.
	Incumbents int `json:"incumbents"`
	// Workers is the branch & bound parallelism of the solve.
	Workers int `json:"workers"`
	// ElapsedMS is wall time since solve start. Timing field:
	// informational only, never a solver input.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Done marks the final snapshot of a finished solve.
	Done bool `json:"done"`
}

// Progress is an atomically-published ProgressSnapshot cell. The solver
// (single writer, sequential sections only) Publishes; any number of
// readers Snapshot concurrently without locks. A nil *Progress is a
// no-op on both sides, mirroring the nil-Sink fast path: hot paths
// guard with `!= nil` and pay one branch when introspection is off.
type Progress struct {
	p atomic.Pointer[ProgressSnapshot]
}

// Publish replaces the current snapshot. Nil-receiver-safe.
func (p *Progress) Publish(s ProgressSnapshot) {
	if p == nil {
		return
	}
	p.p.Store(&s)
}

// Snapshot returns the latest published snapshot, and whether one has
// been published yet. Nil-receiver-safe.
func (p *Progress) Snapshot() (ProgressSnapshot, bool) {
	if p == nil {
		return ProgressSnapshot{}, false
	}
	s := p.p.Load()
	if s == nil {
		return ProgressSnapshot{}, false
	}
	return *s, true
}
