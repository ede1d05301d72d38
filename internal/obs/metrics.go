package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is a registry of solver and request instruments, exposed as
// Prometheus text. It is a Sink: attached to a solve's sink fan-out
// beside the flight rings and the trace writer, it folds the solver's
// events into cumulative counters and per-solve histograms (see
// Event). Serving frontends add one RequestSample per request. Build
// one with NewMetrics: each daemon owns its registry, and the CLIs
// attach one for -metrics and -pprof.
type Metrics struct {
	solvesOptimal   atomic.Int64
	solvesFeasible  atomic.Int64
	solvesInfeas    atomic.Int64
	solvesLimit     atomic.Int64
	solvesUnbounded atomic.Int64
	luRefactors     atomic.Int64
	incumbents      atomic.Int64
	branched        atomic.Int64
	prunedBound     atomic.Int64
	prunedInfeas    atomic.Int64
	integralLeaves  atomic.Int64
	lostSubtrees    atomic.Int64
	prunedStale     atomic.Int64

	// Per-solve distributions, fed by done events. Their _sum series
	// are the solve wall, node and simplex-iteration totals.
	solveWallHist  *Histogram
	solveNodesHist *Histogram
	solveItersHist *Histogram
	// placedRules is fed by RecordRequest.
	placedRules *Histogram

	// Request-level instruments (the placement daemon).
	requests Gauge // in-flight
	queue    Gauge // admitted but waiting for a solve slot
	byStatus LabeledCounter

	// phaseWall attributes request wall time to pipeline phases
	// (queue_wait, parse, encode, model_build, solve, extract), fed by
	// RecordPhaseTrace from the daemon's per-request span tree.
	phaseWall *LabeledHistogram

	// phaseSlow keeps, per phase, the slowest observation's trace ID —
	// the exemplar that turns a p99 histogram reading into a concrete
	// trace to pull.
	phaseSlowMu sync.Mutex
	phaseSlow   map[string]PhaseExemplar

	// Session-layer instruments (the daemon's stateful delta path).
	sessions    Gauge          // live placement sessions
	deltas      LabeledCounter // delta answers by solve path (identity/warm/cold)
	encodeCache LabeledCounter // session cache lookups by (kind, outcome)
}

// Histogram layouts. Log-spaced so one layout spans sub-millisecond
// root-LP solves and multi-minute branch & bound runs.
var (
	// solveWallBuckets: 0.5ms .. ~131s.
	solveWallBuckets = HistogramOpts{Start: 0.0005, Factor: 2, Count: 18}
	// solveNodesBuckets: 1 .. ~524k nodes.
	solveNodesBuckets = HistogramOpts{Start: 1, Factor: 2, Count: 20}
	// solveItersBuckets: 8 .. ~4.2M simplex iterations.
	solveItersBuckets = HistogramOpts{Start: 8, Factor: 2, Count: 20}
	// placedRulesBuckets: 1 .. ~32k installed TCAM slots.
	placedRulesBuckets = HistogramOpts{Start: 1, Factor: 2, Count: 16}
	// phaseWallBuckets: 50µs .. ~26s, fine enough to separate
	// sub-millisecond parse/encode phases from multi-second solves.
	phaseWallBuckets = HistogramOpts{Start: 0.00005, Factor: 2, Count: 20}
)

// NewMetrics returns an empty registry with its histogram layouts set.
func NewMetrics() *Metrics {
	return &Metrics{
		solveWallHist:  NewHistogram(solveWallBuckets),
		solveNodesHist: NewHistogram(solveNodesBuckets),
		solveItersHist: NewHistogram(solveItersBuckets),
		placedRules:    NewHistogram(placedRulesBuckets),
		phaseWall:      NewLabeledHistogram(phaseWallBuckets),
	}
}

// Event folds one solver event into the solver counters, so each
// family keeps its per-ilp.Solve meaning: node events carry their
// outcome, skip and incumbent events count themselves, and the done
// event that closes every solve carries its status and LU
// refactorization total, and its wall time, node and iteration totals
// feed the per-solve histograms.
// Atomics and the histogram locks make the fold lossless under
// concurrent solves sharing one registry.
func (m *Metrics) Event(e Event) {
	switch e.Kind {
	case KindNode:
		switch e.Outcome {
		case OutcomeBranched:
			m.branched.Add(1)
		case OutcomeBound:
			m.prunedBound.Add(1)
		case OutcomeInfeasible:
			m.prunedInfeas.Add(1)
		case OutcomeIntegral:
			m.integralLeaves.Add(1)
		case OutcomeLost:
			m.lostSubtrees.Add(1)
		}
	case KindSkip:
		m.prunedStale.Add(1)
	case KindIncumbent:
		m.incumbents.Add(1)
	case KindDone:
		switch e.Outcome {
		case "optimal":
			m.solvesOptimal.Add(1)
		case "feasible":
			m.solvesFeasible.Add(1)
		case "infeasible":
			m.solvesInfeas.Add(1)
		case "limit":
			m.solvesLimit.Add(1)
		case "unbounded":
			m.solvesUnbounded.Add(1)
		}
		m.luRefactors.Add(int64(e.Refactors))
		m.solveWallHist.Observe(e.TimeMS / 1e3)
		m.solveNodesHist.Observe(float64(e.Node))
		m.solveItersHist.Observe(float64(e.Iters))
	}
}

// PhaseExemplar is the slowest recorded observation of one phase: its
// trace ID, the observed seconds, and the histogram bucket bound the
// observation landed in — so the top bucket of a phase histogram points
// at a concrete trace to pull.
type PhaseExemplar struct {
	Phase   string  `json:"phase"`
	TraceID string  `json:"trace_id"`
	Seconds float64 `json:"seconds"`
	// BucketLE is the upper bound of the phase-histogram bucket this
	// observation fell into (+Inf encoded as 0 is impossible; math.Inf
	// is not JSON-encodable, so +Inf is reported as -1).
	BucketLE float64 `json:"bucket_le"`
}

// RecordPhaseTrace attributes d of request wall time to one pipeline
// phase (queue_wait, parse, encode, model_build, solve, extract). The
// daemon records one observation per phase per request, read from the
// request's span tree after the solve. If this is the slowest
// observation of the phase so far, traceID becomes the phase's
// exemplar; an empty traceID records the observation alone.
func (m *Metrics) RecordPhaseTrace(phase string, d time.Duration, traceID string) {
	m.phaseWall.Observe(phase, d.Seconds())
	if traceID == "" {
		return
	}
	sec := d.Seconds()
	m.phaseSlowMu.Lock()
	if cur, ok := m.phaseSlow[phase]; !ok || sec > cur.Seconds {
		if m.phaseSlow == nil {
			m.phaseSlow = make(map[string]PhaseExemplar)
		}
		le := -1.0
		for _, b := range phaseWallBuckets.Bounds() {
			if sec <= b {
				le = b
				break
			}
		}
		m.phaseSlow[phase] = PhaseExemplar{Phase: phase, TraceID: traceID, Seconds: sec, BucketLE: le}
	}
	m.phaseSlowMu.Unlock()
}

// PhaseExemplars returns the per-phase slowest-observation exemplars,
// sorted by phase name.
func (m *Metrics) PhaseExemplars() []PhaseExemplar {
	m.phaseSlowMu.Lock()
	out := make([]PhaseExemplar, 0, len(m.phaseSlow))
	for _, ex := range m.phaseSlow { //lint:mapdet output is sorted by phase below
		out = append(out, ex)
	}
	m.phaseSlowMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Phase < out[j].Phase })
	return out
}

// RequestSample is the per-request bulk update recorded by a serving
// frontend (cmd/ruleplaced). Status and StopReason label the request
// counter; InstalledRules feeds the placement-size histogram when the
// request produced a placement (Placed).
type RequestSample struct {
	// Status is the request outcome: a placement status ("optimal",
	// "feasible", "infeasible", "limit"), a frontend outcome ("shed",
	// "bad_request", "error", "canceled", "not_found"), or a session
	// read or removal that solved nothing ("fetched", "deleted").
	Status string
	// StopReason is the solver stop reason ("none" when the tree was
	// exhausted; "" for requests that never reached the solver).
	StopReason string
	// Placed marks samples whose InstalledRules is meaningful.
	Placed         bool
	InstalledRules int
}

// RecordRequest folds one finished request into the labeled request
// counter and the installed-rules histogram.
func (m *Metrics) RecordRequest(s RequestSample) {
	reason := s.StopReason
	if reason == "" {
		reason = "none"
	}
	m.byStatus.Add(1, s.Status, reason)
	if s.Placed {
		m.placedRules.Observe(float64(s.InstalledRules))
	}
}

// RecordDelta counts one session delta answer by the fallback-ladder
// level that served it ("identity", "warm", or "cold").
func (m *Metrics) RecordDelta(path string) {
	m.deltas.Add(1, path)
}

// RecordEncodeCache folds a session solve's cache lookup counts into
// the (kind, outcome) counter. kind is "policy" or "merge" for the
// encode cache, or "solution" for the per-policy fragment cache.
func (m *Metrics) RecordEncodeCache(kind string, hits, misses int64) {
	if hits > 0 {
		m.encodeCache.Add(hits, kind, "hit")
	}
	if misses > 0 {
		m.encodeCache.Add(misses, kind, "miss")
	}
}

// Sessions is the gauge of live placement sessions.
func (m *Metrics) Sessions() *Gauge { return &m.sessions }

// InFlight is the gauge of requests currently solving.
func (m *Metrics) InFlight() *Gauge { return &m.requests }

// QueueDepth is the gauge of requests admitted but waiting for a
// solve slot.
func (m *Metrics) QueueDepth() *Gauge { return &m.queue }

// series is one exposition line: optional label set and a value.
type series struct {
	labels string
	val    float64
}

// family is one metric family: TYPE/HELP header plus its series.
type family struct {
	name, help, typ string
	series          []series
}

// promFloat renders a sample value; +Inf never appears as a value (only
// as a bucket label), so %g suffices.
func promFloat(v float64) string { return fmt.Sprintf("%g", v) }

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// histFamilies renders one histogram as its Prometheus series: one
// TYPE/HELP header on the base name, cumulative _bucket{le=...} series
// ending at le="+Inf", then _sum and _count.
func histFamilies(name, help string, h HistogramSnapshot) []family {
	var buckets []series
	for _, b := range h.Buckets {
		le := "+Inf"
		if !math.IsInf(b.LE, 1) {
			le = promFloat(b.LE)
		}
		buckets = append(buckets, series{
			labels: fmt.Sprintf(`{le="%s"}`, le),
			val:    float64(b.Count),
		})
	}
	// The exposition format carries a histogram as one TYPE'd family
	// whose samples are name_bucket/name_sum/name_count; the header-only
	// first entry emits the shared TYPE/HELP lines.
	return []family{
		{name: name, help: help, typ: "histogram"},
		{name: name + "_bucket", series: buckets},
		{name: name + "_sum", series: []series{{val: h.Sum}}},
		{name: name + "_count", series: []series{{val: float64(h.Count)}}},
	}
}

// labeledHistFamilies renders a histogram family whose members carry
// one extra label: per member, cumulative _bucket{label,le} series plus
// labeled _sum and _count. Members arrive sorted (LabeledHistogram
// snapshots sort), so the exposition order is deterministic.
func labeledHistFamilies(name, help, labelName string, members []LabeledHist) []family {
	fams := []family{{name: name, help: help, typ: "histogram"}}
	bucket := family{name: name + "_bucket"}
	sum := family{name: name + "_sum"}
	count := family{name: name + "_count"}
	for _, m := range members {
		lv := escapeLabel(m.Label)
		for _, b := range m.Hist.Buckets {
			le := "+Inf"
			if !math.IsInf(b.LE, 1) {
				le = promFloat(b.LE)
			}
			bucket.series = append(bucket.series, series{
				labels: fmt.Sprintf(`{%s="%s",le="%s"}`, labelName, lv, le),
				val:    float64(b.Count),
			})
		}
		sum.series = append(sum.series, series{
			labels: fmt.Sprintf(`{%s="%s"}`, labelName, lv), val: m.Hist.Sum,
		})
		count.series = append(count.series, series{
			labels: fmt.Sprintf(`{%s="%s"}`, labelName, lv), val: float64(m.Hist.Count),
		})
	}
	return append(fams, bucket, sum, count)
}

// counterFamily renders a labeled counter, one series per member,
// naming its label values by labelNames in order. Members arrive
// sorted (LabeledCounter snapshots sort), so the exposition order is
// deterministic.
func counterFamily(name, help string, c *LabeledCounter, labelNames ...string) family {
	f := family{name: name, help: help, typ: "counter"}
	for _, lc := range c.Snapshot() {
		pairs := make([]string, len(lc.Labels))
		for i, v := range lc.Labels {
			pairs[i] = fmt.Sprintf(`%s="%s"`, labelNames[i], escapeLabel(v))
		}
		f.series = append(f.series, series{labels: "{" + strings.Join(pairs, ",") + "}", val: float64(lc.Value)})
	}
	return f
}

// WritePrometheus writes the registry's instruments in the Prometheus
// text exposition format (version 0.0.4), suitable for a /metrics
// endpoint or a one-shot dump at process exit. Histograms are emitted
// as cumulative _bucket{le=...} series ending at le="+Inf", plus _sum
// and _count.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	n := func(c *atomic.Int64) float64 { return float64(c.Load()) }
	families := []family{
		{name: "rulefit_solves_total", help: "Completed ilp.Solve calls by final status.", typ: "counter", series: []series{
			{labels: `{status="optimal"}`, val: n(&m.solvesOptimal)},
			{labels: `{status="feasible"}`, val: n(&m.solvesFeasible)},
			{labels: `{status="infeasible"}`, val: n(&m.solvesInfeas)},
			{labels: `{status="limit"}`, val: n(&m.solvesLimit)},
			{labels: `{status="unbounded"}`, val: n(&m.solvesUnbounded)},
		}},
		{name: "rulefit_lu_refactorizations_total", help: "Basis LU refactorizations.", typ: "counter", series: []series{
			{val: n(&m.luRefactors)},
		}},
		{name: "rulefit_incumbents_total", help: "Incumbent improvements found.", typ: "counter", series: []series{
			{val: n(&m.incumbents)},
		}},
		{name: "rulefit_node_outcomes_total", help: "Expanded-node outcomes by reason.", typ: "counter", series: []series{
			{labels: `{outcome="branched"}`, val: n(&m.branched)},
			{labels: `{outcome="pruned_bound"}`, val: n(&m.prunedBound)},
			{labels: `{outcome="pruned_infeasible"}`, val: n(&m.prunedInfeas)},
			{labels: `{outcome="integral"}`, val: n(&m.integralLeaves)},
			{labels: `{outcome="lost"}`, val: n(&m.lostSubtrees)},
		}},
		{name: "rulefit_stale_skips_total", help: "Deque items discarded as bound-dominated before expansion.", typ: "counter", series: []series{
			{val: n(&m.prunedStale)},
		}},
		{name: "rulefit_in_flight_requests", help: "Placement requests currently solving.", typ: "gauge", series: []series{
			{val: float64(m.requests.Value())},
		}},
		{name: "rulefit_request_queue_depth", help: "Placement requests admitted but waiting for a solve slot.", typ: "gauge", series: []series{
			{val: float64(m.queue.Value())},
		}},
		{name: "rulefit_sessions_active", help: "Live placement sessions held by the stateful delta layer.", typ: "gauge", series: []series{
			{val: float64(m.sessions.Value())},
		}},
		counterFamily("rulefit_session_deltas_total", "Session delta answers by fallback-ladder solve path.", &m.deltas, "path"),
		counterFamily("rulefit_encode_cache_total", "Session cache lookups by kind (policy and merge encodes, solution fragments) and outcome.",
			&m.encodeCache, "kind", "outcome"),
		counterFamily("rulefit_requests_total", "Placement requests by outcome and solver stop reason.", &m.byStatus, "status", "stop_reason"),
	}
	families = append(families, histFamilies("rulefit_solve_wall_seconds", "Distribution of per-solve wall time (seconds).", m.solveWallHist.Snapshot())...)
	families = append(families, histFamilies("rulefit_solve_nodes", "Distribution of branch & bound nodes per solve.", m.solveNodesHist.Snapshot())...)
	families = append(families, histFamilies("rulefit_solve_simplex_iters", "Distribution of simplex iterations per solve.", m.solveItersHist.Snapshot())...)
	families = append(families, histFamilies("rulefit_installed_rules", "Distribution of installed TCAM slots per placement.", m.placedRules.Snapshot())...)
	if phases := m.phaseWall.Snapshot(); len(phases) > 0 {
		families = append(families, labeledHistFamilies("rulefit_request_phase_seconds",
			"Request wall time attributed to pipeline phases.", "phase", phases)...)
	}

	for _, f := range families {
		if f.typ != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
				return err
			}
		}
		for _, sr := range f.series {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, sr.labels, promFloat(sr.val)); err != nil {
				return err
			}
		}
	}
	return nil
}
