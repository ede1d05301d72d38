package ilp_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rulefit/internal/bench"
	"rulefit/internal/core"
	"rulefit/internal/ilp"
	"rulefit/internal/randgen"
)

// raceEnabled is set by race_test.go under the race detector, which
// slows the solves about fifteenfold.
var raceEnabled bool

// poolModel is one joint placement MILP for the cross-pool oracle.
type poolModel struct {
	name string
	m    *ilp.Model
}

// poolModels builds the joint models core.Place would solve: the quick
// differential suite's seeds 1–200 with merging off and on, the
// merging-on Table II cells of perfbench's merge-grid workload, and
// Fig. 7's c25/r20/s0 point. Under the race detector only the seeds
// run: the ten bench models would add two minutes.
func poolModels(t *testing.T) []poolModel {
	t.Helper()
	var out []poolModel
	add := func(name string, prob *core.Problem, opts core.Options) {
		m, err := core.BuildModel(prob, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, poolModel{name, m})
	}
	for seed := int64(1); seed <= 200; seed++ {
		inst, err := randgen.Generate(randgen.FromSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		add(fmt.Sprintf("seed%d/off", seed), inst.Problem, core.Options{})
		add(fmt.Sprintf("seed%d/merge", seed), inst.Problem, core.Options{Merging: true})
	}
	if raceEnabled {
		return out
	}
	build := func(name string, cfg bench.Config, opts core.Options) {
		prob, err := bench.Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		add(name, prob, opts)
	}
	for m := 1; m <= 3; m++ {
		for _, c := range []int{8, 9, 10} {
			build(fmt.Sprintf("table2/m%d/c%d/merge", m, c),
				bench.Config{K: 4, Ingresses: 8, PathsPerIngress: 4, Rules: 8, Capacity: c, Mergeable: m},
				core.Options{Merging: true})
		}
	}
	build("fig7/c25/r20/s0",
		bench.Config{K: 4, Ingresses: 8, PathsPerIngress: 8, Rules: 20, Capacity: 25, Seed: 0},
		core.Options{})
	return out
}

// TestPoolSizeInvariant is the cross-pool determinism oracle: each
// joint placement model solved on branch & bound pools of 1, 2 and 8
// workers returns the same status, objective, solution vector and
// every Stats field but Workers. A placement is extracted from that
// solution vector alone, so equal vectors mean equal placement bytes.
// A node limit, not a time limit, bounds the solves, so the comparison
// cannot depend on the clock; the three solves of a model run side by
// side. Exact comparison is intentional.
func TestPoolSizeInvariant(t *testing.T) {
	opts := ilp.Options{NodeLimit: 32}
	pools := []int{1, 2, 8}
	models := poolModels(t)
	widened := 0
	for _, pm := range models {
		sols := make([]ilp.Solution, len(pools))
		errs := make([]error, len(pools))
		var wg sync.WaitGroup
		for i, w := range pools {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sols[i], errs[i] = ilp.SolvePool(pm.m, opts, w)
			}()
		}
		wg.Wait()
		base := sols[0]
		if base.Stats.Incumbents > 0 && base.Stats.BnBNodes > base.Stats.LastIncumbentAtNode {
			widened++
		}
		for i, w := range pools {
			got := sols[i]
			if errs[i] != nil {
				t.Fatalf("%s workers=%d: %v", pm.name, w, errs[i])
			}
			if got.Stats.Workers != w {
				t.Errorf("%s: Stats.Workers = %d, want %d", pm.name, got.Stats.Workers, w)
			}
			got.Stats.Workers = base.Stats.Workers
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("%s: workers=%d answer differs from workers=1:\n%+v\nvs\n%+v",
					pm.name, w, got, base)
			}
		}
	}
	t.Logf("%d joint models, %d branch past their last incumbent", len(models), widened)
	if widened == 0 {
		t.Error("no model searched past its last incumbent; the pool's wide rounds never ran")
	}
}
