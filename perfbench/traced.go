package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/daemon"
	"rulefit/internal/obs"
	"rulefit/internal/spec"
	"rulefit/internal/state"
	"rulefit/internal/verify"
)

// The daemon's default time-limit policy (ruleplaced -default-timeout
// and -max-timeout), so in-process solves use the daemon's options.
const (
	daemonDefaultLimit = 60 * time.Second
	daemonMaxLimit     = 10 * time.Minute
)

// spanRec is one recorded span. Spans of one answer share req; parent
// 0 marks a root. Spans taken from an obs.Trace inside core.Place carry
// measured durations but derived starts: obs exposes no start times,
// so each child is laid out where its previous sibling ended.
type spanRec struct {
	Req      string           `json:"req"`
	ID       int              `json:"id"`
	Parent   int              `json:"parent,omitempty"`
	Name     string           `json:"name"`
	Layer    string           `json:"layer"`
	StartUS  float64          `json:"start_us"`
	EndUS    float64          `json:"end_us"`
	Derived  bool             `json:"derived_start,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing.
type recorder struct {
	t0    time.Time
	spans []spanRec
}

func (r *recorder) at(t time.Time) float64 { return float64(t.Sub(r.t0).Nanoseconds()) / 1e3 }

func (r *recorder) begin(req, name, layer string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, spanRec{Req: req, ID: len(r.spans) + 1, Parent: parent, Name: name, Layer: layer, StartUS: r.at(time.Now())})
	return len(r.spans)
}

func (r *recorder) end(id int) float64 {
	if r == nil {
		return 0
	}
	s := &r.spans[id-1]
	s.EndUS = r.at(time.Now())
	return (s.EndUS - s.StartUS) / 1e3
}

// obsCounters are the counter names core and ilp set on their spans.
var obsCounters = []string{"vars", "constraints", "imps", "covers", "groups", "rows", "fixes",
	"iters", "refactors", "cuts", "nodes", "fragments", "stitch_rejected"}

// importObs records an obs span tree starting at startUS and returns
// its duration in µs.
func (r *recorder) importObs(req string, parent int, startUS float64, sp *obs.Span) float64 {
	wall := obsWallMS(sp) * 1e3
	id := len(r.spans) + 1
	rec := spanRec{Req: req, ID: id, Parent: parent, Name: sp.Name(), Layer: obsLayer(sp.Name()),
		StartUS: startUS, EndUS: startUS + wall, Derived: true}
	for _, name := range obsCounters {
		if v, ok := sp.Counter(name); ok {
			if rec.Counters == nil {
				rec.Counters = map[string]int64{}
			}
			rec.Counters[name] = v
		}
	}
	r.spans = append(r.spans, rec)
	t := startUS
	for _, ch := range sp.Children() {
		t += r.importObs(req, id, t, ch)
	}
	return wall
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// obsLayer maps a span name from core.Place's trace to its module.
func obsLayer(name string) string {
	switch name {
	case "model_build", "solve", "presolve", "root_lp", "cuts", "search":
		return "ilp"
	}
	return "core"
}

// obsWallMS is a span's duration. A sub-solve's encode span is never
// ended and reads 0, so its duration is taken from its ended children.
func obsWallMS(sp *obs.Span) float64 {
	if w := sp.Wall(); w > 0 {
		return float64(w.Nanoseconds()) / 1e6
	}
	sum := 0.0
	for _, ch := range sp.Children() {
		sum += obsWallMS(ch)
	}
	return sum
}

func walkObs(sp *obs.Span, fn func(*obs.Span)) {
	fn(sp)
	for _, ch := range sp.Children() {
		walkObs(ch, fn)
	}
}

// layerStats accumulates the per-layer figures of a traced run.
type layerStats struct {
	answers int

	modelBuildMS, presolveMS, rootLPMS, searchMS         float64
	iters, nodes, luRefactors, strongBranch, cutsAdded   int64
	warmStarts, childNodes                               int64
	limitAnswers                                         int
	decomposeMS, wasteMS, encodeMS, extractMS            float64
	subSolves, decompTried, decompAccepted, jointAfterDc int
	variables, constraints                               int64

	deltas, identity                      int
	deltaMS, overheadMS                   float64
	fragHits, fragLookups, encHits, encLk int64

	specMS     float64
	specN      int
	respEncMS  float64
	allocBytes uint64

	tablesMS, semanticsMS float64
	verified, violations  int

	pipelineMS []float64
	selfMS     map[string]float64
}

// addPlace folds one core.Place trace and its answer into the stats.
func (s *layerStats) addPlace(place *obs.Span, pl *core.Placement) {
	var decomp *obs.Span
	joint := false
	for _, ch := range place.Children() {
		switch ch.Name() {
		case "decompose":
			decomp = ch
		case "solve":
			joint = true
		}
	}
	walkObs(place, func(sp *obs.Span) {
		ms := obsWallMS(sp)
		self := ms
		for _, ch := range sp.Children() {
			self -= obsWallMS(ch)
		}
		s.selfMS[obsLayer(sp.Name())] += max(self, 0)
		switch sp.Name() {
		case "model_build":
			s.modelBuildMS += ms
		case "presolve":
			s.presolveMS += ms
		case "root_lp":
			s.rootLPMS += ms
		case "cuts":
			v, _ := sp.Counter("cuts")
			s.cutsAdded += v
		case "search":
			s.searchMS += ms
		case "solve":
			it, _ := sp.Counter("iters")
			n, _ := sp.Counter("nodes")
			s.iters += it
			s.nodes += n
		case "sub_solve":
			s.subSolves++
			// Sub-solve effort is visible only through span counters.
			walkObs(sp, func(c *obs.Span) {
				if c.Name() == "root_lp" {
					v, _ := c.Counter("refactors")
					s.luRefactors += v
				}
			})
		case "encode":
			s.encodeMS += ms
		case "extract":
			s.extractMS += ms
		}
	})
	if decomp != nil {
		s.decompTried++
		ms := obsWallMS(decomp)
		s.decomposeMS += ms
		if _, ok := decomp.Counter("fragments"); ok {
			s.decompAccepted++
		} else {
			s.wasteMS += ms
		}
		if joint {
			s.jointAfterDc++
		}
	}
	if joint {
		st := pl.Stats
		s.luRefactors += int64(st.LURefactors)
		s.strongBranch += int64(st.StrongBranchEvals)
		s.warmStarts += int64(st.WarmStartReuses)
		s.childNodes += int64(max(st.BnBNodes-1, 0))
	}
	s.variables += int64(pl.Stats.Variables)
	s.constraints += int64(pl.Stats.Constraints)
}

// tracedRun is the outcome of replaying a plan in-process.
type tracedRun struct {
	bytes  [][]byte // placement JSON per timed operation
	stats  *layerStats
	errors []string // failed in-process checks
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runInProcess replays the plan's timed operations in-process, in the
// same order, through each layer's public functions. With rec it is the
// traced run: it records spans, verifies every answer, and checks every
// session answer against a cold solve of the same instance. Without rec
// (session-delta only) it just produces the placement bytes the live
// answers must equal.
func runInProcess(p *plan, rec *recorder) (*tracedRun, error) {
	tr := &tracedRun{stats: &layerStats{selfMS: map[string]float64{}}}
	if p.workload == sessionDelta {
		return tr, tr.session(p, rec)
	}
	for i, idx := range p.order {
		it := p.items[idx]
		req := fmt.Sprintf("%s#%d", it.name, i)
		s := tr.stats
		a0 := heapAllocs()
		root := rec.begin(req, "answer", "bench", 0)
		sp := rec.begin(req, "spec", "spec", root)
		desc, err := spec.LoadBytes(it.problem)
		if err != nil {
			return nil, err
		}
		prob, err := desc.Build()
		if err != nil {
			return nil, err
		}
		ms := rec.end(sp)
		s.specMS += ms
		s.specN++
		s.selfMS["spec"] += ms
		opts, err := placeOptions(it.opts, desc)
		if err != nil {
			return nil, err
		}
		opts.Trace = obs.NewTrace()
		placeStart := rec.at(time.Now())
		pl, err := core.Place(prob, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", it.name, err)
		}
		if place := placeSpan(opts.Trace); place != nil {
			rec.importObs(req, root, placeStart, place)
			s.addPlace(place, pl)
		}
		b, err := encodeResponse(rec, req, root, pl, s)
		if err != nil {
			return nil, err
		}
		s.pipelineMS = append(s.pipelineMS, rec.end(root))
		s.allocBytes += heapAllocs() - a0
		s.answers++
		if pl.Status == core.StatusLimit || pl.Status == core.StatusFeasible {
			s.limitAnswers++
		}
		tr.bytes = append(tr.bytes, b)
		tr.verify(rec, req, prob, pl)
	}
	return tr, nil
}

// placeItem solves an item in-process as the daemon does.
func placeItem(it *item) (*core.Placement, error) {
	desc, err := spec.LoadBytes(it.problem)
	if err != nil {
		return nil, err
	}
	prob, err := desc.Build()
	if err != nil {
		return nil, err
	}
	opts, err := placeOptions(it.opts, desc)
	if err != nil {
		return nil, err
	}
	pl, err := core.Place(prob, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", it.name, err)
	}
	return pl, nil
}

// placeOptions converts request options to core options as the daemon
// does for /v1/place.
func placeOptions(ro daemon.RequestOptions, desc *spec.Problem) (core.Options, error) {
	opts, err := ro.BuildOptions(daemonDefaultLimit, daemonMaxLimit)
	if err != nil {
		return opts, err
	}
	opts.Monitors, err = desc.BuildMonitors()
	return opts, err
}

func placeSpan(t *obs.Trace) *obs.Span {
	for _, sp := range t.Roots() {
		if sp.Name() == "place" {
			return sp
		}
	}
	return nil
}

// encodeResponse times the daemon's wire projection of a placement.
func encodeResponse(rec *recorder, req string, root int, pl *core.Placement, s *layerStats) ([]byte, error) {
	id := rec.begin(req, "encode_response", "daemon", root)
	b, err := json.Marshal(daemon.EncodePlacement(pl))
	ms := rec.end(id)
	s.respEncMS += ms
	s.selfMS["daemon"] += ms
	return b, err
}

// verify compiles an answer to switch tables and runs the capacity and
// semantics verifiers, outside the answer's span.
func (tr *tracedRun) verify(rec *recorder, req string, prob *core.Problem, pl *core.Placement) {
	if pl.Status != core.StatusOptimal && pl.Status != core.StatusFeasible {
		return
	}
	s := tr.stats
	id := rec.begin(req, "tables", "verify", 0)
	net, err := pl.BuildTables(prob)
	ms := rec.end(id)
	s.tablesMS += ms
	s.selfMS["verify"] += ms
	s.verified++
	if err != nil {
		s.violations++
		tr.errors = append(tr.errors, fmt.Sprintf("%s: tables: %v", req, err))
		return
	}
	id = rec.begin(req, "capacities", "verify", 0)
	cv := verify.Capacities(net, prob.Network)
	s.selfMS["verify"] += rec.end(id)
	id = rec.begin(req, "semantics", "verify", 0)
	sv := verify.Semantics(net, prob.Routing, pl.Policies, verify.Config{})
	ms = rec.end(id)
	s.semanticsMS += ms
	s.selfMS["verify"] += ms
	if n := len(cv) + len(sv); n > 0 {
		s.violations += n
		tr.errors = append(tr.errors, fmt.Sprintf("%s: %d capacity and %d semantic violations", req, len(cv), len(sv)))
	}
}

// session replays the session-delta plan through state.Manager.
func (tr *tracedRun) session(p *plan, rec *recorder) error {
	s := tr.stats
	desc, err := spec.LoadBytes(mustJSON(p.base))
	if err != nil {
		return err
	}
	id := rec.begin("create", "spec", "spec", 0)
	prob, err := desc.Build()
	if err != nil {
		return err
	}
	s.specMS, s.specN = rec.end(id), 1
	explicit := spec.FromCore(prob)
	opts, err := p.sessOpts.BuildOptions(daemonDefaultLimit, daemonMaxLimit)
	if err != nil {
		return err
	}
	mgr := state.NewManager(state.Config{})
	sess, _, err := mgr.Create(explicit, opts)
	if err != nil {
		return fmt.Errorf("session create: %w", err)
	}
	cur := explicit.Clone()
	for i, e := range p.warmEdits {
		if _, err := sess.Delta(e.deltas, nil, nil); err != nil {
			return fmt.Errorf("warm-up edit %d: %w", i, err)
		}
		if err := cur.ApplyAll(e.deltas); err != nil {
			return err
		}
	}
	cold := map[[32]byte][]byte{}
	for i, e := range p.edits {
		if rec == nil {
			res, err := sess.Delta(e.deltas, nil, nil)
			if err != nil {
				return fmt.Errorf("edit %d: %w", i, err)
			}
			b, err := json.Marshal(daemon.EncodePlacement(res.Placement))
			if err != nil {
				return err
			}
			tr.bytes = append(tr.bytes, b)
			continue
		}
		req := p.label(i)
		rc := obs.NewRequestCtx(req)
		a0 := heapAllocs()
		root := rec.begin(req, "answer", "bench", 0)
		did := rec.begin(req, "delta", "state", root)
		res, err := sess.Delta(e.deltas, rc, nil)
		deltaMS := rec.end(did)
		if err != nil {
			return fmt.Errorf("edit %d: %w", i, err)
		}
		placeMS := 0.0
		if place := placeSpan(rc.Trace); place != nil {
			placeMS = obsWallMS(place)
			// Core.Place is the last step of Delta.
			rec.importObs(req, did, rec.spans[did-1].EndUS-placeMS*1e3, place)
			s.addPlace(place, res.Placement)
		}
		s.deltas++
		s.deltaMS += deltaMS
		s.overheadMS += deltaMS - placeMS
		s.selfMS["state"] += deltaMS - placeMS
		if res.Path == state.PathIdentity {
			s.identity++
		}
		s.fragHits += res.SolStats.Hits
		s.fragLookups += res.SolStats.Hits + res.SolStats.Misses
		cs := res.CacheStats
		s.encHits += cs.PolicyHits + cs.MergeHits
		s.encLk += cs.PolicyHits + cs.PolicyMisses + cs.MergeHits + cs.MergeMisses
		b, err := encodeResponse(rec, req, root, res.Placement, s)
		if err != nil {
			return err
		}
		s.pipelineMS = append(s.pipelineMS, rec.end(root))
		s.allocBytes += heapAllocs() - a0
		s.answers++
		tr.bytes = append(tr.bytes, b)

		// The delta-vs-cold contract: the session answer equals a cold
		// /v1/place of the same instance, byte for byte.
		if err := cur.ApplyAll(e.deltas); err != nil {
			return err
		}
		problem := mustJSON(cur)
		key := sha256.Sum256(problem)
		want, ok := cold[key]
		if !ok {
			pl, err := placeItem(&item{name: req, problem: problem, opts: p.sessOpts})
			if err != nil {
				return err
			}
			if want, err = json.Marshal(daemon.EncodePlacement(pl)); err != nil {
				return err
			}
			cold[key] = want
		}
		if !bytes.Equal(b, want) {
			tr.errors = append(tr.errors, fmt.Sprintf("%s: session answer differs from a cold solve", req))
		}
		prob, err := cur.Build()
		if err != nil {
			return err
		}
		tr.verify(rec, req, prob, res.Placement)
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal: %v", err))
	}
	return b
}

// pipelineMedian is the traced run's median per-answer latency.
func (s *layerStats) pipelineMedian() float64 {
	xs := make([]sample, len(s.pipelineMS))
	for i, v := range s.pipelineMS {
		xs[i] = sample{ms: v}
	}
	return median(sortedSamples(xs))
}

// selfLayers lists the layers with recorded self time, in order.
func (s *layerStats) selfLayers() []string {
	var out []string
	for k := range s.selfMS {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
