package core_test

import (
	"errors"
	"math"
	"testing"

	"rulefit/internal/core"
	"rulefit/internal/ilp"
	"rulefit/internal/randgen"
)

// TestExhaustiveMatchesILP: on tiny random instances the enumeration
// oracle and the branch & bound agree on status and optimal objective.
func TestExhaustiveMatchesILP(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 80; seed++ {
		inst, err := randgen.Generate(randgen.FromSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opts := core.Options{Backend: core.BackendILP}
		exh, err := core.PlaceExhaustive(inst.Problem, opts, 16)
		if errors.Is(err, core.ErrExhaustiveTooLarge) {
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: exhaustive: %v", seed, err)
		}
		pl, err := core.Place(inst.Problem, opts)
		if err != nil {
			t.Fatalf("seed %d: ilp: %v", seed, err)
		}
		checked++
		if exh.Status != pl.Status {
			t.Errorf("seed %d: exhaustive %v, ilp %v", seed, exh.Status, pl.Status)
			continue
		}
		if exh.Status == core.StatusOptimal && math.Abs(exh.Objective-pl.Objective) > 0.5 {
			t.Errorf("seed %d: exhaustive obj %g, ilp obj %g", seed, exh.Objective, pl.Objective)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d instances fit the exhaustive budget; want >= 20", checked)
	}
}

// TestExhaustiveTooLarge: exceeding the variable budget is a typed
// error, not a wrong answer.
func TestExhaustiveTooLarge(t *testing.T) {
	inst, err := randgen.Generate(randgen.Config{Seed: 3, Topo: randgen.TopoRing,
		Switches: 6, Ingresses: 2, PathsPerIngress: 3, RulesPerPolicy: 8, Width: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.PlaceExhaustive(inst.Problem, core.Options{}, 4)
	if !errors.Is(err, core.ErrExhaustiveTooLarge) {
		t.Fatalf("got %v, want ErrExhaustiveTooLarge", err)
	}
}

// TestExhaustiveRejectsMinMaxLoad: the enumeration oracle only supports
// linear objectives.
func TestExhaustiveRejectsMinMaxLoad(t *testing.T) {
	inst, err := randgen.Generate(randgen.FromSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.PlaceExhaustive(inst.Problem, core.Options{Objective: core.ObjMinMaxLoad}, 16); err == nil {
		t.Fatal("want error for ObjMinMaxLoad")
	}
}

// TestExhaustiveDeterministicTieBreak: re-running yields the identical
// placement (lexicographically smallest optimal assignment).
func TestExhaustiveDeterministicTieBreak(t *testing.T) {
	inst, err := randgen.Generate(randgen.FromSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.PlaceExhaustive(inst.Problem, core.Options{}, 18)
	if errors.Is(err, core.ErrExhaustiveTooLarge) {
		t.Skip("instance too large for budget")
	}
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.PlaceExhaustive(inst.Problem, core.Options{}, 18)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Assign) != len(b.Assign) {
		t.Fatal("assign shape differs between runs")
	}
	for pi := range a.Assign {
		for ri := range a.Assign[pi] {
			if len(a.Assign[pi][ri]) != len(b.Assign[pi][ri]) {
				t.Fatalf("policy %d rule %d: placements differ", pi, ri)
			}
			for k := range a.Assign[pi][ri] {
				if a.Assign[pi][ri][k] != b.Assign[pi][ri][k] {
					t.Fatalf("policy %d rule %d: placements differ", pi, ri)
				}
			}
		}
	}
}

// TestBuildModelSolvesLikePlace: the exported problem-to-MILP
// translation, driven through ilp.Solve directly, reproduces the
// objective core.Place reports.
func TestBuildModelSolvesLikePlace(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		inst, err := randgen.Generate(randgen.FromSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.BuildModel(inst.Problem, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sol, err := ilp.Solve(m, ilp.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pl, err := core.Place(inst.Problem, core.Options{Backend: core.BackendILP})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		switch pl.Status {
		case core.StatusOptimal:
			if sol.Status != ilp.Optimal {
				t.Errorf("seed %d: model status %v, place optimal", seed, sol.Status)
			} else if math.Abs(sol.Objective-pl.Objective) > 1e-6 {
				t.Errorf("seed %d: model obj %g, place obj %g", seed, sol.Objective, pl.Objective)
			}
		case core.StatusInfeasible:
			if sol.Status != ilp.Infeasible {
				t.Errorf("seed %d: model status %v, place infeasible", seed, sol.Status)
			}
		}
	}
}
