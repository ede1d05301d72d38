package diffcheck

import (
	"testing"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/randgen"
	"rulefit/internal/verify"
)

// quickOpts is the configuration the quick suite and the fuzz target
// share: small verification sampling budgets and a SAT proof budget so
// the rare counting-hard instance degrades to a recorded skip instead
// of a wall-clock cliff.
func quickOpts(seed int64) Options {
	return Options{
		SATTimeLimit: 2 * time.Second,
		Verify:       verify.Config{SamplesPerRule: 2, RandomSamples: 6, MaxViolations: 3, Seed: seed},
	}
}

// TestQuickDifferentialSuite is the tier-1 differential gate: 200
// seeded random instances, each cross-checked ILP vs SAT vs exhaustive
// enumeration, each feasible placement replayed through the data-plane
// verifier, with the metamorphic battery on every fourth instance.
func TestQuickDifferentialSuite(t *testing.T) {
	const instances = 200
	var exhaustive, infeasible, satSkips, metamorphic int
	for seed := int64(1); seed <= instances; seed++ {
		inst, err := randgen.Generate(randgen.FromSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		opts := quickOpts(seed)
		if seed%4 == 0 {
			opts.Metamorphic = true
			metamorphic++
		}
		res := Check(inst, opts)
		for _, f := range res.Failures {
			t.Errorf("seed %d (%v): %s", seed, inst.Config.Topo, f)
		}
		if res.Exhaustive != nil {
			exhaustive++
		}
		if res.SATUnproven {
			satSkips++
		}
		if res.ILP != nil && res.ILP.Status == core.StatusInfeasible {
			infeasible++
		}
		if t.Failed() && seed > 20 {
			t.Fatal("stopping early after failures")
		}
	}
	t.Logf("%d instances: %d with exhaustive oracle, %d infeasible, %d SAT budget skips, %d metamorphic",
		instances, exhaustive, infeasible, satSkips, metamorphic)
	// The suite is only meaningful if the oracle mix is healthy: the
	// exhaustive oracle must cover a majority, both feasible and
	// infeasible answers must occur, and SAT skips must stay rare.
	if exhaustive < instances/3 {
		t.Errorf("exhaustive oracle covered only %d/%d instances", exhaustive, instances)
	}
	if infeasible == 0 {
		t.Error("no infeasible instances generated; tighten capacity profiles")
	}
	if infeasible > instances*3/4 {
		t.Errorf("%d/%d instances infeasible; loosen capacity profiles", infeasible, instances)
	}
	if satSkips > instances/20 {
		t.Errorf("%d SAT budget skips out of %d; budget too small or SAT regressed", satSkips, instances)
	}
}

// TestCheckObjectives exercises the differential harness under the
// non-default linear objectives on a few seeds each.
func TestCheckObjectives(t *testing.T) {
	for _, obj := range []core.Objective{core.ObjTraffic, core.ObjWeightedSwitches} {
		for seed := int64(1); seed <= 15; seed++ {
			inst, err := randgen.Generate(randgen.FromSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			opts := quickOpts(seed)
			opts.Core.Objective = obj
			res := Check(inst, opts)
			for _, f := range res.Failures {
				t.Errorf("objective %v seed %d: %s", obj, seed, f)
			}
		}
	}
}

// TestCheckWithMergingAndSlicing runs option combinations the default
// quick sweep doesn't: cross-policy merging, path slicing, and
// redundancy removal.
func TestCheckWithMergingAndSlicing(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		cfg := randgen.FromSeed(seed)
		cfg.SharedDrops = 2 // guarantee merge groups exist
		cfg.TrafficSlices = true
		inst, err := randgen.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opts := quickOpts(seed)
		opts.Core.Merging = true
		opts.Core.PathSlicing = true
		opts.Core.RemoveRedundant = seed%2 == 0
		res := Check(inst, opts)
		for _, f := range res.Failures {
			t.Errorf("seed %d: %s", seed, f)
		}
	}
}

// TestShrinkPreservesFailure plants a synthetic failure predicate — an
// instance is "failing" whenever its ILP placement is infeasible — by
// shrinking a known-infeasible instance and checking the result is (a)
// still infeasible and (b) no larger than the original.
func TestShrinkPreservesFailure(t *testing.T) {
	var inst *randgen.Instance
	for seed := int64(1); seed <= 100; seed++ {
		cfg := randgen.FromSeed(seed)
		if cfg.Capacity != randgen.CapTight {
			continue
		}
		cand, err := randgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := core.Place(cand.Problem, core.Options{Backend: core.BackendILP})
		if err != nil {
			t.Fatal(err)
		}
		if pl.Status == core.StatusInfeasible {
			inst = cand
			break
		}
	}
	if inst == nil {
		t.Skip("no infeasible instance in seed range")
	}
	// An Options value under which infeasibility *is* the failure: an
	// exhaustive-vs-ILP status comparison can't be forced to fail on a
	// healthy solver, so instead shrink against a harness whose verify
	// stage is replaced by the infeasibility predicate via KindUnproven:
	// use Check but treat "still infeasible" as the signal by wrapping.
	failing := func(in *randgen.Instance) bool {
		pl, err := core.Place(in.Problem, core.Options{Backend: core.BackendILP})
		return err == nil && pl.Status == core.StatusInfeasible
	}
	shrunk := shrinkWith(inst, failing, 8)
	if !failing(shrunk) {
		t.Fatal("shrunk instance lost the property")
	}
	if shrunk.Problem.Network.NumSwitches() > inst.Problem.Network.NumSwitches() {
		t.Error("shrinking grew the network")
	}
	rulesOf := func(in *randgen.Instance) int {
		n := 0
		for _, p := range in.Problem.Policies {
			n += len(p.Rules)
		}
		return n
	}
	if rulesOf(shrunk) > rulesOf(inst) {
		t.Error("shrinking grew the rule count")
	}
	t.Logf("shrunk %d switches/%d rules -> %d switches/%d rules",
		inst.Problem.Network.NumSwitches(), rulesOf(inst),
		shrunk.Problem.Network.NumSwitches(), rulesOf(shrunk))
}

// TestFixtureRoundTrip: instance -> fixture JSON -> instance survives
// with identical solver behavior (same ILP wire bytes).
func TestFixtureRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(1); seed <= 25; seed++ {
		inst, err := randgen.Generate(randgen.FromSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		coreOpts := core.Options{Merging: seed%2 == 0, PathSlicing: inst.Config.TrafficSlices}
		fix := NewFixture(inst, coreOpts, "round trip")
		path := dir + "/fix.json"
		if err := fix.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadFixture(path)
		if err != nil {
			t.Fatal(err)
		}
		inst2, opts2, err := loaded.instance()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if opts2.Merging != coreOpts.Merging || opts2.PathSlicing != coreOpts.PathSlicing {
			t.Fatalf("seed %d: options round trip lost flags", seed)
		}
		solve := func(p *core.Problem) string {
			pl, err := core.Place(p, core.Options{Backend: core.BackendILP,
				Merging: coreOpts.Merging, PathSlicing: coreOpts.PathSlicing})
			if err != nil {
				t.Fatal(err)
			}
			return mustWire(t, pl)
		}
		if a, b := solve(inst.Problem), solve(inst2.Problem); a != b {
			t.Fatalf("seed %d: fixture round trip changed the placement:\n%s\nvs\n%s", seed, a, b)
		}
	}
}
