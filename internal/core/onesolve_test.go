package core_test

import (
	"fmt"
	"testing"
	"time"

	"rulefit/internal/bench"
	"rulefit/internal/core"
	"rulefit/internal/obs"
	"rulefit/internal/obs/traceview"
	"rulefit/internal/randgen"
)

// eventLog keeps every event of one Place; a solve's events arrive on
// one goroutine.
type eventLog []obs.Event

func (l *eventLog) Event(e obs.Event) { *l = append(*l, e) }

// TestAtMostOneSolvePerAnswer: every answer runs at most one
// ilp.Solve, so its trace (and the metrics folded from it) carries
// exactly the nodes, simplex iterations and LU refactorizations its
// Stats report. It covers randgen's FromSeed and SoakConfig classes
// with merging off and on, a decomposition that a policy's failed
// certificate sends to the joint MILP, and Table II's m3/C=8 cell with
// merging off, whose stitch is rejected.
func TestAtMostOneSolvePerAnswer(t *testing.T) {
	type answer struct {
		name string
		prob *core.Problem
		opts core.Options
	}
	var answers []answer
	classes := []struct {
		name string
		cfg  func(int64) randgen.Config
	}{{"FromSeed", randgen.FromSeed}, {"SoakConfig", randgen.SoakConfig}}
	for seed := int64(1); seed <= 200; seed++ {
		for _, c := range classes {
			inst, err := randgen.Generate(c.cfg(seed))
			if err != nil {
				t.Fatalf("%s(%d): %v", c.name, seed, err)
			}
			for _, merging := range []bool{false, true} {
				answers = append(answers, answer{fmt.Sprintf("%s(%d) merging=%v", c.name, seed, merging),
					inst.Problem, core.Options{Merging: merging}})
			}
		}
	}
	answers = append(answers, answer{"mixed", core.MixedProblem(t), core.Options{}})
	grid, err := bench.Build(bench.Config{K: 4, Ingresses: 8, PathsPerIngress: 4, Rules: 8, Capacity: 8, Mergeable: 3})
	if err != nil {
		t.Fatal(err)
	}
	answers = append(answers, answer{"table2 m3/c8/off", grid, core.Options{}})

	paths := make(map[core.SolvePath]int)
	for _, a := range answers {
		var events eventLog
		a.opts.SolverSink = &events
		a.opts.TimeLimit = 30 * time.Second
		pl, err := core.Place(a.prob, a.opts)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		paths[pl.Stats.SolvePath]++
		done := 0
		for _, e := range events {
			if e.Kind == obs.KindDone {
				done++
			}
		}
		if done > 1 {
			t.Errorf("%s: %d solves on path %q, want at most 1", a.name, done, pl.Stats.SolvePath)
		}
		s, st := traceview.Of(events), pl.Stats
		if s.Nodes != st.BnBNodes || s.SimplexIters != st.SimplexIters || s.LURefactors != st.LURefactors {
			t.Errorf("%s: trace counts %d nodes, %d iters, %d refactors; stats %d, %d, %d",
				a.name, s.Nodes, s.SimplexIters, s.LURefactors, st.BnBNodes, st.SimplexIters, st.LURefactors)
		}
	}
	for _, p := range []core.SolvePath{core.SolveCertified, core.SolveFallback, core.SolveJoint} {
		if paths[p] == 0 {
			t.Errorf("no answer took the %q path", p)
		}
	}
	t.Logf("answers per path: %v", paths)
}
