package traceview

import (
	"bytes"
	"strings"
	"testing"

	"rulefit/internal/obs"
)

// sampleEvents is one solve's stream. Its done event carries the
// solve's totals, which exceed the root_lp and node events' sums
// (29 iterations, 1 refactorization) by the strong-branch trials no
// other event counts.
func sampleEvents() []obs.Event {
	return []obs.Event{
		{Kind: obs.KindStart, BranchVar: -1, Gap: -1},
		{Kind: obs.KindRootLP, Bound: 3.5, Iters: 12, Refactors: 1, Gap: -1},
		{Kind: obs.KindNode, Node: 1, Depth: 0, Outcome: obs.OutcomeBranched, Bound: 4, BranchVar: 1, Frac: 0.5, Iters: 12, Gap: -1},
		{Kind: obs.KindNode, Node: 2, Parent: 1, Depth: 1, Outcome: obs.OutcomeIntegral, Bound: 5, BranchVar: -1, Iters: 3, Gap: -1},
		{Kind: obs.KindIncumbent, Node: 2, Incumbent: 5, Gap: -1},
		{Kind: obs.KindGap, Node: 2, Incumbent: 5, BestBound: 4, Gap: 0.2},
		{Kind: obs.KindNode, Node: 3, Parent: 1, Depth: 1, Outcome: obs.OutcomeBound, Bound: 5, BranchVar: -1, Iters: 2, Gap: -1},
		{Kind: obs.KindSkip, Node: 0, Bound: 6, Gap: -1},
		{Kind: obs.KindDone, Node: 3, Outcome: "optimal", Reason: "none", Iters: 40, Refactors: 3,
			Incumbent: 5, BestBound: 5, Gap: 0},
	}
}

func TestOfAggregates(t *testing.T) {
	s := Of(sampleEvents())
	if s.Nodes != 3 || s.StaleSkips != 1 || s.Incumbents != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.Outcomes[obs.OutcomeBranched] != 1 || s.Outcomes[obs.OutcomeIntegral] != 1 || s.Outcomes[obs.OutcomeBound] != 1 {
		t.Fatalf("outcomes wrong: %v", s.Outcomes)
	}
	if s.SimplexIters != 40 || s.LURefactors != 3 {
		t.Fatalf("effort wrong: %+v", s)
	}
	if len(s.GapCurve) != 1 || s.GapCurve[0].Gap != 0.2 {
		t.Fatalf("gap curve wrong: %+v", s.GapCurve)
	}
	if s.FinalStatus != "optimal" || s.StopReason != "none" || s.FinalGap != 0 || s.MaxDepth != 1 {
		t.Fatalf("final wrong: %+v", s)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("consistent trace failed Check: %v", err)
	}
}

func TestCheckCatchesBadAccounting(t *testing.T) {
	ev := sampleEvents()
	for i, e := range ev {
		if e.Kind != obs.KindNode {
			continue
		}
		lost := append(append([]obs.Event(nil), ev[:i]...), ev[i+1:]...)
		if err := Of(lost).Check(); err == nil {
			t.Fatalf("Check missed node event %d's removal", e.Node)
		}
	}
	s2 := Of(ev[:len(ev)-1]) // no done event
	if err := s2.Check(); err == nil {
		t.Fatal("Check missed a missing done event")
	}
}

// TestEmptyTrace: an answer that ran no ILP solve leaves an empty
// stream, which passes Check and renders as such; a stream that has
// events but no done event still fails.
func TestEmptyTrace(t *testing.T) {
	s, err := Summarize(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if s.Events != 0 || s.Nodes != 0 || s.HasDone() || s.Partial {
		t.Fatalf("empty trace: %+v", s)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("empty trace failed Check: %v", err)
	}
	if out := s.Render(); !strings.Contains(out, "no ILP solve ran") {
		t.Fatalf("empty trace renders %q", out)
	}
	if err := Of(sampleEvents()[:1]).Check(); err == nil {
		t.Fatal("Check passed a start event with no done event")
	}
}

// TestMultiSolveTotals: a trace of several solves sums their done
// totals.
func TestMultiSolveTotals(t *testing.T) {
	ev := append(sampleEvents(), sampleEvents()...)
	s := Of(ev)
	if s.Nodes != 6 || s.SimplexIters != 80 || s.LURefactors != 6 {
		t.Fatalf("two solves: %d nodes, %d iters, %d refactors; want 6, 80, 6", s.Nodes, s.SimplexIters, s.LURefactors)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestPartialDumpCountsEvents: a flight dump's tail has no done total
// to trust, so it reports what its events carry and passes Check
// without a done event.
func TestPartialDumpCountsEvents(t *testing.T) {
	ev := sampleEvents()
	dump := append([]obs.Event{{Kind: obs.KindFlightMeta, Node: len(ev) - 1, Seen: len(ev)}}, ev[:len(ev)-1]...)
	s := Of(dump)
	if !s.Partial || s.Nodes != 3 || s.SimplexIters != 29 || s.LURefactors != 1 {
		t.Fatalf("partial dump: %+v", s)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("partial dump failed Check: %v", err)
	}
}

func TestSummarizeFromJSONL(t *testing.T) {
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	for _, e := range sampleEvents() {
		w.Event(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 3 || !s.HasDone() {
		t.Fatalf("summarize wrong: %+v", s)
	}
	out := s.Render()
	for _, want := range []string{"pruned_bound", "gap convergence", "status=optimal", "stop=none"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
