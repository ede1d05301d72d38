package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderAndMulti(t *testing.T) {
	a := NewFlightRecorder(FlightOpts{Size: 8})
	b := NewFlightRecorder(FlightOpts{Size: 8})
	s := Multi(nil, a, nil, b)
	if s == nil {
		t.Fatal("Multi with live sinks returned nil")
	}
	e := Event{Kind: KindNode, Node: 1, Outcome: OutcomeBranched, Bound: 2.5}
	s.Event(e)
	if got := a.Dump().Events; len(got) != 1 || got[0] != e {
		t.Fatalf("recorder a got %v", got)
	}
	if got := b.Dump().Events; len(got) != 1 || got[0] != e {
		t.Fatalf("recorder b got %v", got)
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi of all-nil sinks should be nil so the solver fast path applies")
	}
	if Multi(a) != Sink(a) {
		t.Fatal("Multi of one sink should return it unwrapped")
	}
}

func TestNormalizeZeroesTimingOnly(t *testing.T) {
	e := Event{Kind: KindNode, Node: 3, Bound: 1.5, TimeMS: 12.5}
	n := e.Normalize()
	if n.TimeMS != 0 {
		t.Fatal("Normalize kept TimeMS")
	}
	e.TimeMS = 0
	if n != e {
		t.Fatalf("Normalize changed non-timing fields: %+v vs %+v", n, e)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	events := []Event{
		{Kind: KindStart, BranchVar: -1, Gap: -1},
		{Kind: KindNode, Node: 1, Depth: 0, Outcome: OutcomeBranched, Bound: 3.25, BranchVar: 2, Frac: 0.5, Iters: 7, Gap: -1},
		{Kind: KindDone, Node: 5, Outcome: "optimal", Reason: "none", Incumbent: 4, BestBound: 4, Gap: 0, TimeMS: 1.25},
	}
	for _, e := range events {
		w.Event(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, events)
	}
}

func TestJSONLWriterConcurrentLinesIntact(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	var wg sync.WaitGroup
	const writers, per = 8, 50
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.Event(Event{Kind: KindNode, Node: g*per + i + 1})
			}
		}(g)
	}
	wg.Wait()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("interleaved write corrupted a line: %v", err)
	}
	if len(got) != writers*per {
		t.Fatalf("got %d events, want %d", len(got), writers*per)
	}
}

func TestSpanTreeAndNilSafety(t *testing.T) {
	tr := NewTrace()
	root := tr.Span("place")
	child := root.Child("solve")
	child.SetCount("nodes", 42)
	child.End()
	root.End()
	root.End() // second End keeps the first measurement

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name() != "place" {
		t.Fatalf("roots = %v", roots)
	}
	kids := roots[0].Children()
	if len(kids) != 1 || kids[0].Name() != "solve" {
		t.Fatalf("children = %v", kids)
	}
	if v, ok := kids[0].Counter("nodes"); !ok || v != 42 {
		t.Fatalf("counter nodes = %d, %v", v, ok)
	}
	if !strings.Contains(tr.Render(), "nodes=42") {
		t.Fatalf("render missing counter:\n%s", tr.Render())
	}

	// The nil trace and nil span must be safe no-ops everywhere.
	var nilTrace *Trace
	sp := nilTrace.Span("x")
	if sp != nil {
		t.Fatal("nil trace produced a live span")
	}
	sp.Child("y").SetCount("n", 1)
	sp.End()
	if sp.Wall() != 0 || sp.AllocBytes() != 0 || sp.Name() != "" || sp.Children() != nil {
		t.Fatal("nil span accessors not zero")
	}
	if _, ok := sp.Counter("n"); ok {
		t.Fatal("nil span has a counter")
	}
	if nilTrace.Render() != "" || nilTrace.Roots() != nil {
		t.Fatal("nil trace accessors not zero")
	}
}

func TestSpanMeasuresWall(t *testing.T) {
	tr := NewTrace()
	sp := tr.Span("sleep")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if sp.Wall() < time.Millisecond {
		t.Fatalf("wall = %v, want >= 1ms", sp.Wall())
	}
}

// TestMetricsRecordAndEncoders feeds a registry two solves' event
// streams: per-event counters fold from their kinds, and the totals
// (solves, nodes, iterations, refactorizations, wall) from the done
// events alone, which also count the effort no other event carries.
func TestMetricsRecordAndEncoders(t *testing.T) {
	m := NewMetrics()
	for _, e := range []Event{
		{Kind: KindStart},
		{Kind: KindRootLP, Iters: 12, Refactors: 1},
		{Kind: KindNode, Node: 1, Outcome: OutcomeBranched},
		{Kind: KindNode, Node: 2, Outcome: OutcomeBranched, Iters: 5},
		{Kind: KindNode, Node: 3, Outcome: OutcomeBound, Iters: 5},
		{Kind: KindSkip},
		{Kind: KindNode, Node: 4, Outcome: OutcomeInfeasible, Iters: 5},
		{Kind: KindNode, Node: 5, Outcome: OutcomeIntegral, Iters: 5},
		{Kind: KindIncumbent, Node: 5},
		{Kind: KindDone, Node: 5, Outcome: "optimal", Iters: 40, Refactors: 2, TimeMS: 1.5},
	} {
		m.Event(e)
	}
	for i := 1; i <= 10; i++ {
		m.Event(Event{Kind: KindNode, Node: i, Outcome: OutcomeBranched})
	}
	m.Event(Event{Kind: KindDone, Node: 10, Outcome: "limit"})
	s := scrape(t, m)
	solves := func(status string) float64 { return s[`rulefit_solves_total{status="`+status+`"}`] }
	if solves("optimal") != 1 || solves("limit") != 1 || solves("feasible")+solves("infeasible")+solves("unbounded") != 0 {
		t.Fatalf("solve counts wrong: %v", s)
	}
	outcome := func(o string) float64 { return s[`rulefit_node_outcomes_total{outcome="`+o+`"}`] }
	if s["rulefit_solve_nodes_sum"] != 15 || outcome("branched") != 12 || outcome("pruned_bound") != 1 ||
		outcome("pruned_infeasible") != 1 || outcome("integral") != 1 || s["rulefit_stale_skips_total"] != 1 ||
		s["rulefit_incumbents_total"] != 1 {
		t.Fatalf("node counts wrong: %v", s)
	}
	if s["rulefit_solve_simplex_iters_sum"] != 40 || s["rulefit_lu_refactorizations_total"] != 2 {
		t.Fatalf("effort wrong: %v", s)
	}
	if wall := s["rulefit_solve_wall_seconds_sum"]; wall < 0.001 || wall > 0.01 {
		t.Fatalf("wall = %v", wall)
	}
	if s["rulefit_solve_nodes_count"] != 2 || s["rulefit_solve_simplex_iters_count"] != 2 {
		t.Fatalf("per-solve histograms wrong: %v", s)
	}

	var prom bytes.Buffer
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		"# TYPE rulefit_solves_total counter",
		`rulefit_solves_total{status="optimal"} 1`,
		`rulefit_node_outcomes_total{outcome="branched"} 12`,
		"rulefit_solve_nodes_sum 15",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}
