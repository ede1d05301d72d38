package core_test

import (
	"testing"
	"time"

	"rulefit/internal/bench"
	"rulefit/internal/core"
	"rulefit/internal/obs"
)

// TestMetricsFoldMatchesJointSolve: a registry attached as the solver
// sink of a joint placement (Table II's m=1, C=9 cell with merging on,
// which strong-branches) holds exactly that solve's Stats, for every
// worker count.
func TestMetricsFoldMatchesJointSolve(t *testing.T) {
	prob, err := bench.Build(bench.Config{K: 4, Ingresses: 8, PathsPerIngress: 4, Rules: 8, Capacity: 9, Mergeable: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		reg := obs.NewMetrics()
		pl, err := core.Place(prob, core.Options{Merging: true, Workers: w, TimeLimit: 60 * time.Second, SolverSink: reg})
		if err != nil {
			t.Fatal(err)
		}
		st := pl.Stats
		if pl.Status != core.StatusOptimal || pl.Stats.SolvePath != core.SolveJoint || st.StrongBranchEvals == 0 {
			t.Fatalf("workers=%d: want an optimal joint solve with strong branching, got %v via %v, %d trials",
				w, pl.Status, pl.Stats.SolvePath, st.StrongBranchEvals)
		}
		s := reg.Snapshot()
		for _, c := range []struct {
			name      string
			got, want int64
		}{
			{"solves optimal", s.SolvesOptimal, 1},
			{"other solves", s.SolvesFeasible + s.SolvesInfeasible + s.SolvesLimit + s.SolvesUnbounded, 0},
			{"nodes", s.Nodes, int64(st.BnBNodes)},
			{"simplex iterations", s.SimplexIters, int64(st.SimplexIters)},
			{"LU refactorizations", s.LURefactors, int64(st.LURefactors)},
			{"presolve fixes", s.PresolveFixes, int64(st.PresolveFix)},
			{"incumbents", s.Incumbents, int64(st.Incumbents)},
			{"branched", s.Branched, int64(st.Branched)},
			{"pruned bound", s.PrunedBound, int64(st.PrunedBound)},
			{"pruned infeasible", s.PrunedInfeasible, int64(st.PrunedInfeasible)},
			{"integral", s.IntegralLeaves, int64(st.IntegralLeaves)},
			{"lost", s.LostSubtrees, int64(st.LostSubtrees)},
			{"stale skips", s.PrunedStale, int64(st.PrunedStale)},
		} {
			if c.got != c.want {
				t.Errorf("workers=%d: registry holds %d %s, Stats %d", w, c.got, c.name, c.want)
			}
		}
	}
}
