package core_test

import (
	"strings"
	"testing"
	"time"

	"rulefit/internal/bench"
	"rulefit/internal/core"
	"rulefit/internal/obs"
)

// TestMetricsFoldMatchesJointSolve: a registry attached as the solver
// sink of a joint placement (Table II's m=1, C=8 cell with merging on,
// whose root gap is above 0, so its tree strong-branches) holds exactly
// that solve's Stats.
func TestMetricsFoldMatchesJointSolve(t *testing.T) {
	prob, err := bench.Build(bench.Config{K: 4, Ingresses: 8, PathsPerIngress: 4, Rules: 8, Capacity: 8, Mergeable: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewMetrics()
	pl, err := core.Place(prob, core.Options{Merging: true, TimeLimit: 60 * time.Second, SolverSink: reg})
	if err != nil {
		t.Fatal(err)
	}
	st := pl.Stats
	if pl.Status != core.StatusOptimal || pl.Stats.SolvePath != core.SolveJoint || st.StrongBranchEvals == 0 {
		t.Fatalf("want an optimal joint solve with strong branching, got %v via %v, %d trials",
			pl.Status, pl.Stats.SolvePath, st.StrongBranchEvals)
	}
	var exposition strings.Builder
	if err := reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	s, err := obs.PrometheusSamples(strings.NewReader(exposition.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		series string
		want   int
	}{
		{`rulefit_solves_total{status="optimal"}`, 1},
		{`rulefit_solves_total{status="feasible"}`, 0},
		{`rulefit_solves_total{status="infeasible"}`, 0},
		{`rulefit_solves_total{status="limit"}`, 0},
		{`rulefit_solves_total{status="unbounded"}`, 0},
		{"rulefit_solve_nodes_sum", st.BnBNodes},
		{"rulefit_solve_simplex_iters_sum", st.SimplexIters},
		{"rulefit_lu_refactorizations_total", st.LURefactors},
		{"rulefit_incumbents_total", st.Incumbents},
		{`rulefit_node_outcomes_total{outcome="branched"}`, st.Branched},
		{`rulefit_node_outcomes_total{outcome="pruned_bound"}`, st.PrunedBound},
		{`rulefit_node_outcomes_total{outcome="pruned_infeasible"}`, st.PrunedInfeasible},
		{`rulefit_node_outcomes_total{outcome="integral"}`, st.IntegralLeaves},
		{`rulefit_node_outcomes_total{outcome="lost"}`, st.LostSubtrees},
		{"rulefit_stale_skips_total", st.PrunedStale},
	} {
		if got, ok := s[c.series]; !ok || got != float64(c.want) {
			t.Errorf("/metrics %s reads %g (present %v), Stats %d", c.series, got, ok, c.want)
		}
	}
}
