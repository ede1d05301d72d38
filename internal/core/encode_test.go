package core_test

import (
	"fmt"
	"testing"

	"rulefit/internal/bench"
	"rulefit/internal/core"
	"rulefit/internal/match"
	"rulefit/internal/policy"
	"rulefit/internal/randgen"
	"rulefit/internal/topology"
)

// sessionInstance is perfbench's session-delta instance: randgen seed
// 1, fat-tree k=4, 8 policies of 100 five-tuple rules, 2 paths per
// ingress, slack capacities.
func sessionInstance(tb testing.TB) *core.Problem {
	tb.Helper()
	inst, err := randgen.Generate(randgen.Config{
		Seed: 1, Topo: randgen.TopoFatTree, FatTreeK: 4, Ingresses: 8,
		PathsPerIngress: 2, RulesPerPolicy: 100, Capacity: randgen.CapSlack,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return inst.Problem
}

// subProblem is policy pi's decomposed sub-problem: the whole network
// and routing, one policy.
func subProblem(prob *core.Problem, pi int) *core.Problem {
	return &core.Problem{Network: prob.Network, Routing: prob.Routing, Policies: []*policy.Policy{prob.Policies[pi]}}
}

// monitors returns two monitors for prob: an all-wildcard one at the
// last switch of the first policy's first path, which every DROP rule
// overlaps, and one matching that policy's first rule at the path's
// second switch.
func monitors(prob *core.Problem) []core.Monitor {
	pol := prob.Policies[0]
	path := prob.Routing.Sets[topology.PortID(pol.Ingress)].Paths[0]
	r := pol.Rules[0]
	return []core.Monitor{
		{Switch: path.Switches[len(path.Switches)-1], Match: match.NewTernary(r.Match.Width())},
		{Switch: path.Switches[min(1, len(path.Switches)-1)], Match: r.Match},
	}
}

// encodeVariants crosses merging, path slicing, monitors and the four
// objectives over base.
func encodeVariants(prob *core.Problem, base core.Options) []core.Options {
	var out []core.Options
	for _, merging := range []bool{false, true} {
		for _, slicing := range []bool{false, true} {
			for _, mons := range [][]core.Monitor{nil, monitors(prob)} {
				for _, obj := range []core.Objective{core.ObjTotalRules, core.ObjTraffic, core.ObjWeightedSwitches, core.ObjMinMaxLoad} {
					o := base
					o.Merging, o.PathSlicing, o.Monitors, o.Objective = merging, slicing, mons, obj
					out = append(out, o)
				}
			}
		}
	}
	return out
}

// checkEncoding fails the test when the encoder's report for (prob,
// opts) differs from the reference encoder's.
func checkEncoding(t *testing.T, name string, prob *core.Problem, opts core.Options) {
	t.Helper()
	got, want := core.EncodingReport(prob, opts, false), core.EncodingReport(prob, opts, true)
	if got != want {
		t.Fatalf("%s: the encoding differs from the reference encoder's\n got: %.2000s\nwant: %.2000s", name, got, want)
	}
}

// TestEncodingMatchesReference holds the slab encoder to the map-based
// encoder it replaced: the variables, every constraint table and count,
// the merge groups and dummies, the objective weights, the ILP model's
// LP bytes, the greedy pass and the certificate must all be identical.
// It runs randgen seeds 1–200, each instance and each policy's
// sub-problem, under every variant of encodeVariants (seeds alternate
// redundancy removal and, every third seed, share an EncodeCache), then
// perfbench's merge-grid cells, two instances whose path sets span
// more than 64 switches, and perfbench's session instance.
func TestEncodingMatchesReference(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(1); seed <= seeds; seed++ {
		inst, err := randgen.Generate(randgen.FromSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prob := inst.Problem
		base := core.Options{RemoveRedundant: seed%2 == 0}
		if seed%3 == 0 {
			base.EncodeCache = core.NewEncodeCache(len(prob.Policies))
		}
		probs := []*core.Problem{prob}
		for pi := range prob.Policies {
			probs = append(probs, subProblem(prob, pi))
		}
		for i, p := range probs {
			for _, opts := range encodeVariants(prob, base) {
				checkEncoding(t, fmt.Sprintf("seed %d problem %d %+v", seed, i, opts), p, opts)
			}
		}
	}

	for m := 1; m <= 3; m++ {
		for _, c := range []int{8, 9, 10} {
			prob, err := bench.Build(bench.Config{K: 4, Ingresses: 8, PathsPerIngress: 4, Rules: 8, Capacity: c, Mergeable: m})
			if err != nil {
				t.Fatal(err)
			}
			for _, merging := range []bool{false, true} {
				checkEncoding(t, fmt.Sprintf("merge-grid m%d/c%d merging=%v", m, c, merging), prob, core.Options{Merging: merging})
			}
		}
	}

	// Path sets over more than 64 switches take several bitmask words
	// per rule: a 150-switch line and a 140-switch ring.
	for _, cfg := range []randgen.Config{
		{Seed: 1, Topo: randgen.TopoLinear, Switches: 150, Ingresses: 1, PathsPerIngress: 3, RulesPerPolicy: 12, Width: 8,
			OverlapDensity: 0.6, DropFraction: 0.5, SharedDrops: 2, Capacity: randgen.CapMedium, TrafficSlices: true},
		{Seed: 3, Topo: randgen.TopoRing, Switches: 140, Ingresses: 2, PathsPerIngress: 4, RulesPerPolicy: 10, Width: 8,
			OverlapDensity: 0.6, DropFraction: 0.5, Capacity: randgen.CapSlack},
	} {
		inst, err := randgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prob := inst.Problem
		if w := widestPathSet(prob); w <= 64 {
			t.Fatalf("%v: the widest path set spans %d switches, want more than 64", cfg.Topo, w)
		}
		for _, base := range []core.Options{{}, {RemoveRedundant: true}} {
			for _, opts := range encodeVariants(prob, base) {
				checkEncoding(t, fmt.Sprintf("%v %d switches %+v", cfg.Topo, cfg.Switches, opts), prob, opts)
			}
		}
	}

	prob := sessionInstance(t)
	for _, opts := range []core.Options{{}, {Merging: true}, {Objective: core.ObjTraffic}} {
		checkEncoding(t, fmt.Sprintf("session instance %+v", opts), prob, opts)
	}
	for pi := range prob.Policies {
		checkEncoding(t, fmt.Sprintf("session policy %d", pi), subProblem(prob, pi), core.Options{})
	}
}

// widestPathSet returns how many switches the largest of prob's
// policies' path sets spans.
func widestPathSet(prob *core.Problem) int {
	widest := 0
	for _, pol := range prob.Policies {
		seen := map[topology.SwitchID]bool{}
		for _, path := range prob.Routing.Sets[topology.PortID(pol.Ingress)].Paths {
			for _, sw := range path.Switches {
				seen[sw] = true
			}
		}
		widest = max(widest, len(seen))
	}
	return widest
}

// FuzzEncodeMatchesReference is TestEncodingMatchesReference's
// comparison on a random small problem: a randgen quick-suite instance
// from the seed, or one policy's sub-problem of it, under the options
// the flag bits pick.
func FuzzEncodeMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		for _, flags := range []uint16{0, 0x1f, 0x2a, 0x155} {
			f.Add(seed, flags)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, flags uint16) {
		inst, err := randgen.Generate(randgen.FromSeed(seed))
		if err != nil {
			t.Skip(err)
		}
		prob := inst.Problem
		opts := core.Options{
			Merging:         flags&1 != 0,
			PathSlicing:     flags&2 != 0,
			RemoveRedundant: flags&4 != 0,
			Objective:       core.Objective(1 + flags>>3&3),
		}
		if flags&32 != 0 {
			opts.Monitors = monitors(prob)
		}
		if flags&64 != 0 {
			opts.EncodeCache = core.NewEncodeCache(len(prob.Policies))
		}
		if pi := int(flags >> 7 & 3); pi > 0 && pi <= len(prob.Policies) {
			prob = subProblem(prob, pi-1)
		}
		checkEncoding(t, fmt.Sprintf("seed %d flags %#x", seed, flags), prob, opts)
	})
}

// BenchmarkEncodeCertify encodes one policy's sub-problem of perfbench's
// session instance and runs the counting certificate on it, the work
// of a session edit that misses the fragment cache.
func BenchmarkEncodeCertify(b *testing.B) {
	prob := sessionInstance(b)
	pol := prob.Policies[3]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !core.EncodeCertify(prob, pol, core.Options{}) {
			b.Fatal("policy 3 did not certify")
		}
	}
}
