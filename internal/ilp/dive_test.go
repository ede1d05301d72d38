package ilp

import (
	"testing"
	"time"

	"rulefit/internal/obs"
	"rulefit/internal/obs/traceview"
)

// TestRootDiveTrace: a solve the root dive closes (a fractional root
// whose bound is the optimum) answers at node 1, and its trace
// accounts for the dive. The root node event is pruned by bound and
// carries the dive's iterations and refactorizations, an incumbent
// event names node 1, the full trace passes Check with done totals
// equal to Stats, and a flight dump of the same events sums to Stats
// from its per-event counts.
func TestRootDiveTrace(t *testing.T) {
	m := parallelFixture(11, 20)
	rec := fullRing()
	sol, err := Solve(m, Options{TimeLimit: 60 * time.Second, Sink: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySolution(m, sol.Values); err != nil {
		t.Fatal(err)
	}
	st := sol.Stats
	//lint:exactfloat a proof reports a gap of exactly 0
	if sol.Status != Optimal || st.BnBNodes != 1 || st.PrunedBound != 1 || st.Incumbents != 1 ||
		st.LastIncumbentAtNode != 1 || st.Branched != 0 || st.IntegralLeaves != 0 ||
		st.StrongBranchEvals != 0 || st.WarmStartReuses != 0 || st.Gap != 0 {
		t.Fatalf("status %v, stats %+v; want a dive proof at node 1", sol.Status, st)
	}
	events := fullTrace(t, rec)
	var rootLP, root, inc *obs.Event
	for i, e := range events {
		switch e.Kind {
		case obs.KindRootLP:
			rootLP = &events[i]
		case obs.KindNode:
			root = &events[i]
		case obs.KindIncumbent:
			inc = &events[i]
		}
	}
	if rootLP == nil || root == nil || inc == nil {
		t.Fatalf("trace lacks a root_lp, node or incumbent event: %v", events)
	}
	if root.Node != 1 || root.Outcome != obs.OutcomeBound || root.Iters == 0 ||
		root.Iters != st.SimplexIters-rootLP.Iters || root.Refactors != st.LURefactors-rootLP.Refactors {
		t.Errorf("root node event %+v; want pruned_bound carrying the %d iterations and %d refactorizations past the root LP",
			*root, st.SimplexIters-rootLP.Iters, st.LURefactors-rootLP.Refactors)
	}
	//lint:exactfloat the event carries the answer's objective unchanged
	if inc.Node != 1 || inc.Incumbent != sol.Objective {
		t.Errorf("incumbent event %+v; want node 1 with objective %g", *inc, sol.Objective)
	}
	full := traceview.Of(events)
	if err := full.Check(); err != nil {
		t.Error(err)
	}
	dump := traceview.Of(append([]obs.Event{{Kind: obs.KindFlightMeta}}, events...))
	for name, sum := range map[string]*traceview.Summary{"done totals": full, "flight dump": dump} {
		if sum.Nodes != st.BnBNodes || sum.SimplexIters != st.SimplexIters || sum.LURefactors != st.LURefactors {
			t.Errorf("%s: %d nodes, %d iters, %d refactors; Stats %d, %d, %d", name,
				sum.Nodes, sum.SimplexIters, sum.LURefactors, st.BnBNodes, st.SimplexIters, st.LURefactors)
		}
	}
}
