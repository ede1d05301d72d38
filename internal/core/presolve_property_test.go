package core_test

import (
	"errors"
	"math"
	"testing"

	"rulefit/internal/core"
	"rulefit/internal/randgen"
)

// TestPresolveNeverExcludesOptimum is the safety property behind the
// solver's bound tightening: presolve may only discard non-optimal or
// infeasible parts of the search space. On seeded random instances
// small enough for the enumeration oracle, solves with presolve on and
// off must report the same status and the same optimal objective as
// PlaceExhaustive — a bound that excluded the optimum shows up here as
// a worse objective on the default variant.
func TestPresolveNeverExcludesOptimum(t *testing.T) {
	base := core.Options{Backend: core.BackendILP, Merging: true}
	variants := []struct {
		name string
		mod  func(core.Options) core.Options
	}{
		{"default", func(o core.Options) core.Options { return o }},
		{"nopresolve", func(o core.Options) core.Options { o.DisablePresolve = true; return o }},
	}
	checked := 0
	for seed := int64(1); seed <= 80; seed++ {
		inst, err := randgen.Generate(randgen.FromSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exh, err := core.PlaceExhaustive(inst.Problem, base, 16)
		if errors.Is(err, core.ErrExhaustiveTooLarge) {
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: exhaustive: %v", seed, err)
		}
		checked++
		for _, v := range variants {
			pl, err := core.Place(inst.Problem, v.mod(base))
			if err != nil {
				t.Fatalf("seed %d/%s: %v", seed, v.name, err)
			}
			if pl.Status != exh.Status {
				t.Errorf("seed %d/%s: status %v, oracle %v", seed, v.name, pl.Status, exh.Status)
				continue
			}
			if exh.Status == core.StatusOptimal && math.Abs(pl.Objective-exh.Objective) > 0.5 {
				t.Errorf("seed %d/%s: objective %g, oracle optimum %g — search space pruning excluded the optimum",
					seed, v.name, pl.Objective, exh.Objective)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d instances fit the exhaustive budget; want >= 20", checked)
	}
}
