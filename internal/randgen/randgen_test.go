package randgen_test

import (
	"encoding/json"
	"testing"

	"rulefit/internal/policy"
	"rulefit/internal/randgen"
	"rulefit/internal/spec"
)

// instanceBytes serializes a generated problem canonically (via the
// explicit spec form used by regression fixtures), so byte equality
// means deep structural equality.
func instanceBytes(t *testing.T, inst *randgen.Instance) []byte {
	t.Helper()
	data, err := json.Marshal(spec.FromCore(inst.Problem))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGenerateDeterministic: the generator is a pure function of the
// config — generating the same seed twice yields byte-identical
// instances. This is what makes every soak failure reproducible from
// its seed alone.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		cfg := randgen.FromSeed(seed)
		a, err := randgen.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := randgen.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ba, bb := instanceBytes(t, a), instanceBytes(t, b)
		if string(ba) != string(bb) {
			t.Fatalf("seed %d: two generations differ:\n%s\nvs\n%s", seed, ba, bb)
		}
	}
}

// TestFromSeedGenerates: every quick-suite seed yields a valid,
// non-trivial instance (at least one DROP rule per policy, so the
// placement problem has variables).
func TestFromSeedGenerates(t *testing.T) {
	families := map[randgen.Topo]int{}
	widths := map[int]int{}
	caps := map[randgen.CapProfile]int{}
	for seed := int64(1); seed <= 300; seed++ {
		cfg := randgen.FromSeed(seed)
		inst, err := randgen.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, cfg, err)
		}
		if err := inst.Problem.Validate(); err != nil {
			t.Fatalf("seed %d: invalid problem: %v", seed, err)
		}
		if len(inst.Problem.Policies) == 0 {
			t.Fatalf("seed %d: no policies", seed)
		}
		for _, pol := range inst.Problem.Policies {
			if len(pol.DropRules()) == 0 {
				t.Fatalf("seed %d: policy %d has no DROP rules", seed, pol.Ingress)
			}
		}
		families[inst.Config.Topo]++
		widths[inst.Config.Width]++
		caps[inst.Config.Capacity]++
	}
	// The seed sweep must exercise the whole configuration space.
	for _, f := range []randgen.Topo{randgen.TopoLinear, randgen.TopoRing, randgen.TopoRandom, randgen.TopoFatTree} {
		if families[f] == 0 {
			t.Errorf("no instance used topology %v", f)
		}
	}
	if widths[0] == 0 {
		t.Error("no 5-tuple instances generated")
	}
	for _, c := range []randgen.CapProfile{randgen.CapTight, randgen.CapMedium, randgen.CapSlack} {
		if caps[c] == 0 {
			t.Errorf("no instance used capacity profile %v", c)
		}
	}
}

// TestNarrowSlices: with TrafficSlices on a narrow width, every path
// carries a slice of the policy's own width (a width mismatch would
// break match.Ternary operations inside the encoder).
func TestNarrowSlices(t *testing.T) {
	cfg := randgen.Config{Seed: 7, Topo: randgen.TopoRing, Switches: 4, Width: 8,
		Ingresses: 2, PathsPerIngress: 2, TrafficSlices: true}
	inst, err := randgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range inst.Problem.Routing.Ingresses() {
		for _, p := range inst.Problem.Routing.Sets[in].Paths {
			if !p.HasTraffic {
				t.Fatalf("path %v has no traffic slice", p)
			}
			if p.Traffic.Width() != 8 {
				t.Fatalf("path %v slice width %d, want 8", p, p.Traffic.Width())
			}
		}
	}
}

// TestSharedDropsMergeable: SharedDrops prepends identical top-priority
// DROP rules to every policy — the §IV-B merge groups.
func TestSharedDropsMergeable(t *testing.T) {
	cfg := randgen.Config{Seed: 11, Topo: randgen.TopoLinear, Switches: 3,
		Ingresses: 2, PathsPerIngress: 1, SharedDrops: 2, Width: 10}
	inst, err := randgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Problem.Policies) < 2 {
		t.Skip("topology exposed fewer than 2 ingresses")
	}
	a, b := inst.Problem.Policies[0], inst.Problem.Policies[1]
	for i := 0; i < 2; i++ {
		if a.Rules[i].Action != policy.Drop {
			t.Fatalf("shared rule %d is not DROP", i)
		}
		if a.Rules[i].Match.Key() != b.Rules[i].Match.Key() {
			t.Fatalf("shared rule %d differs across policies", i)
		}
	}
}

// TestSoakConfigGenerates: the soak profile also yields valid instances.
func TestSoakConfigGenerates(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		inst, err := randgen.Generate(randgen.SoakConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := inst.Problem.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
