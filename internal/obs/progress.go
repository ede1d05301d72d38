package obs

import "sync"

// ProgressSnapshot is one point-in-time view of a running solve, as
// folded from its event stream by Progress and read by the daemon's
// /debug/solvez endpoint. All fields are observational.
type ProgressSnapshot struct {
	// TraceID joins the snapshot to its request ("" when unscoped).
	TraceID string `json:"trace_id,omitempty"`
	// Phase is where the solve currently is: "admitted" (no solver
	// event yet), "root_lp" (solve started), "search" (root LP done),
	// or "done".
	Phase string `json:"phase"`
	// Nodes is the branch & bound nodes expanded so far.
	Nodes int `json:"nodes"`
	// Incumbent is the best integer objective so far; meaningful only
	// when HaveIncumbent.
	Incumbent     float64 `json:"incumbent"`
	HaveIncumbent bool    `json:"have_incumbent"`
	// BestBound is a valid lower bound on the optimum: the root bound
	// until the first improving round, then that of the latest one.
	BestBound float64 `json:"best_bound"`
	// Gap is the relative optimality gap at the latest improving round
	// (-1 undefined, e.g. before the first incumbent — the same
	// sentinel as ilp.Stats).
	Gap float64 `json:"gap"`
	// Incumbents counts incumbent improvements so far.
	Incumbents int `json:"incumbents"`
	// ElapsedMS is the latest event's TimeMS. Timing field:
	// informational only.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Done marks the final snapshot of a finished solve.
	Done bool `json:"done"`
}

// Progress is a Sink that folds one request's solver events into a
// live ProgressSnapshot. Every ILP solve opens with a start event,
// which starts a fresh view. A placement runs at most one ILP solve, so the view follows
// that solve; an answer that runs none (a certified decomposition,
// the SAT backend) leaves it in phase "admitted".
// Event updates the view in place under a mutex without allocating;
// any number of readers call Snapshot concurrently.
type Progress struct {
	mu sync.Mutex
	s  ProgressSnapshot
}

// NewProgress returns a progress view in phase "admitted", before any
// solver event.
func NewProgress(traceID string) *Progress {
	return &Progress{s: ProgressSnapshot{TraceID: traceID, Phase: "admitted", Gap: -1}}
}

// Event folds one solver event into the view.
func (p *Progress) Event(e Event) {
	ms := e.TimeMS
	p.mu.Lock()
	s := &p.s
	switch e.Kind {
	case KindStart:
		*s = ProgressSnapshot{TraceID: s.TraceID, Phase: "root_lp", Gap: -1}
	case KindRootLP:
		s.Phase, s.BestBound = "search", e.Bound
	case KindNode:
		s.Nodes = e.Node
		if e.Node == 1 {
			// The root node's bound is ceiled when the objective is
			// integral; the root_lp event's is raw.
			s.BestBound = e.Bound
		}
	case KindIncumbent:
		s.Incumbent, s.HaveIncumbent = e.Incumbent, true
		s.Incumbents++
	case KindGap:
		s.Nodes, s.BestBound, s.Gap = e.Node, e.BestBound, e.Gap
	case KindDone:
		s.Phase, s.Done = "done", true
		s.Nodes, s.BestBound, s.Gap = e.Node, e.BestBound, e.Gap
	}
	s.ElapsedMS = ms
	p.mu.Unlock()
}

// Snapshot returns the current view.
func (p *Progress) Snapshot() ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.s
}
