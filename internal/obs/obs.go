// Package obs is the repo's zero-dependency observability layer: it
// turns every placement run into explainable data without ever
// influencing the answer. Three facilities, all optional and all safe
// to leave wired in production paths:
//
//   - Solver event tracing: internal/ilp emits a structured Event
//     stream (node expansions with depth/bound/branch variable, prunes
//     with their reason, incumbents, a bound-gap time series, and the
//     final stop reason) into a Sink. A nil Sink costs one branch per
//     node; a non-nil Sink never feeds back into the search, so
//     placements are byte-identical with tracing on or off, and — since
//     events are emitted from the solver's sequential merge loop — the
//     event sequence is identical modulo timing fields for any branch
//     & bound pool size.
//
//   - Phase spans: hierarchical wall-clock/alloc timers over the
//     compile pipeline (parse → routing → dependency graph → model
//     build → presolve → root LP → B&B → extraction → verify). All
//     Span/Trace methods are nil-receiver-safe, so call sites need no
//     guards, and span mutation is mutex-serialized so concurrent
//     goroutines can share a Trace.
//
//   - Metrics exposition: a registry (NewMetrics) that is one more
//     Sink. It folds solver events into atomic counters and per-solve
//     histograms, takes the daemon's per-request samples, and renders
//     Prometheus text. Each process that exposes counters builds and
//     attaches its own; the solver writes no process-global state.
//
// Determinism rule: timing fields (Event.TimeMS, span wall times,
// alloc deltas) are observational only. No consumer may route them
// back into solver decisions, and determinism comparisons must exclude
// them. Everything else in an Event is a pure function of the
// instance.
package obs

// Event kinds, in the order a solve emits them.
const (
	// KindPresolve reports bound-propagation presolve (Fixes).
	KindPresolve = "presolve"
	// KindRootLP reports the root relaxation (Bound, Iters, Refactors).
	KindRootLP = "root_lp"
	// KindPseudocostInit reports one reliability strong-branching
	// initialization (Node, BranchVar, Frac, Iters spent on the trials).
	// Emitted only from the sequential merge sections.
	KindPseudocostInit = "pseudocost_init"
	// KindNode reports one expanded branch & bound node: Node id,
	// Parent, Depth, LP Bound, the Outcome, and — when branched — the
	// branching variable and its fractionality.
	KindNode = "node"
	// KindSkip reports a deque item discarded before expansion because
	// an incumbent found after it was pushed dominates its bound.
	// Skipped items are not counted as nodes.
	KindSkip = "skip"
	// KindIncumbent reports a new best integer solution (Node that
	// produced it, Incumbent objective).
	KindIncumbent = "incumbent"
	// KindGap is one point of the bound-gap time series, emitted at the
	// round boundary after an incumbent improvement: nodes so far,
	// Incumbent, BestBound, Gap.
	KindGap = "gap"
	// KindDone closes the trace: final status (Outcome), stop reason
	// (Reason), the solve's node, simplex iteration and LU
	// refactorization totals (Node, Iters, Refactors), Incumbent,
	// BestBound, Gap. Only the totals count the strong-branch trials
	// and a root LP that ends the solve.
	KindDone = "done"
	// KindFlightMeta heads a flight-recorder dump (see FlightRecorder):
	// Node carries the retained event count, Seen/Dropped the loss
	// accounting. Never emitted by the solver itself; its presence
	// marks a trace as a partial (ring-buffer) dump.
	KindFlightMeta = "flight_meta"
)

// Node outcomes carried by KindNode events. Every expanded node gets
// exactly one, so the per-outcome counts sum to the node total.
const (
	// OutcomeBranched: fractional LP optimum; two children pushed.
	OutcomeBranched = "branched"
	// OutcomeBound: LP bound dominated by the incumbent; subtree cut.
	OutcomeBound = "pruned_bound"
	// OutcomeInfeasible: node LP proven empty; sound prune.
	OutcomeInfeasible = "pruned_infeasible"
	// OutcomeIntegral: LP optimum already integral; leaf reached.
	OutcomeIntegral = "integral"
	// OutcomeLost: node LP hit the time limit or numerics; the subtree
	// is lost and optimality can no longer be proven.
	OutcomeLost = "lost"
)

// Event is one structured solver event. The struct is flat so it
// round-trips through JSONL without a tagged union; fields not used by
// a kind are zero. TimeMS is the only timing field: it is milliseconds
// since the solve started, informational only, and must be excluded
// from determinism comparisons (see Normalize).
type Event struct {
	Kind string `json:"kind"`
	// TraceID joins the event to the request that produced it (see
	// RequestCtx and Tag). Empty for unscoped solves. Deterministic —
	// included in determinism comparisons.
	TraceID string `json:"trace_id,omitempty"`
	// Node is the 1-based id of the node (KindNode/KindIncumbent), or
	// the nodes-so-far count (KindGap/KindDone).
	Node int `json:"node"`
	// Parent is the id of the node that pushed this item (0 for root).
	Parent int `json:"parent"`
	// Depth is the branching depth (root children are depth 1).
	Depth int `json:"depth"`
	// Outcome is the node outcome (KindNode) or final status (KindDone).
	Outcome string `json:"outcome,omitempty"`
	// Bound is the node's LP objective, ceiled when the objective is
	// integral (KindNode/KindSkip: the pruning bound; KindRootLP: the
	// raw root relaxation objective).
	Bound float64 `json:"bound"`
	// BranchVar is the model variable branched on (-1 when the node did
	// not branch).
	BranchVar int `json:"branch_var"`
	// Frac is the branching variable's fractional part distance.
	Frac float64 `json:"frac"`
	// Iters is the simplex iteration delta attributed to this event
	// (KindDone: the solve's total).
	Iters int `json:"iters"`
	// Refactors is the LU refactorization delta for this event
	// (KindDone: the solve's total).
	Refactors int `json:"refactors"`
	// Fixes is the presolve bound-tightening count (KindPresolve).
	Fixes int `json:"fixes"`
	// Incumbent is the best integer objective known at the event.
	Incumbent float64 `json:"incumbent"`
	// BestBound is a valid lower bound on the optimum at the event.
	BestBound float64 `json:"best_bound"`
	// Gap is the relative optimality gap (0 proven, -1 undefined).
	Gap float64 `json:"gap"`
	// Reason is the stop reason (KindDone only).
	Reason string `json:"reason,omitempty"`
	// Seen/Dropped carry a flight dump's loss accounting
	// (KindFlightMeta only; zero and omitted on solver events).
	Seen    int `json:"seen,omitempty"`
	Dropped int `json:"dropped,omitempty"`
	// TimeMS is milliseconds since solve start. Timing field:
	// informational only, excluded from determinism comparisons.
	TimeMS float64 `json:"time_ms"`
}

// Normalize returns a copy of the event with timing fields zeroed, for
// determinism comparisons (identical searches must produce identical
// normalized event sequences).
func (e Event) Normalize() Event {
	e.TimeMS = 0
	return e
}

// Sink receives solver events. Implementations must not feed anything
// back into the solver; the solve's behavior never depends on the sink.
// Events arrive from a single goroutine per solve, but separate
// concurrent solves may share a sink, so implementations that aggregate
// must lock (FlightRecorder, JSONLWriter and Progress do) or add
// atomically (Metrics does).
//
// A nil Sink means observability is off: hot paths call methods only
// behind a `!= nil` guard so the fast path stays allocation-free.
//
//lint:sinkguard-iface nil when observability is off; guard every call
type Sink interface {
	Event(Event)
}

// multiSink fans each event out to several sinks.
type multiSink []Sink

func (m multiSink) Event(e Event) {
	for _, s := range m {
		//lint:sinkguard Multi drops nil sinks at construction
		s.Event(e)
	}
}

// Multi returns a Sink that forwards each event to every non-nil sink,
// or nil when none remain (so the solver's nil fast path still applies).
func Multi(sinks ...Sink) Sink {
	var out multiSink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}
