package core

import (
	"reflect"
	"strings"
	"testing"

	"rulefit/internal/ilp"
	"rulefit/internal/obs"
	"rulefit/internal/policy"
	"rulefit/internal/routing"
	"rulefit/internal/topology"
)

// jointSolve runs the non-decomposed ILP path directly (internal
// access), as Place would without the decomposition fast path.
func jointSolve(t *testing.T, prob *Problem, opts Options) *Placement {
	t.Helper()
	opts = opts.withDefaults()
	enc, err := buildEncoding(prob, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := solveILP(enc, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// mixedProblem is determinismProblem with policy 0's ingress switch
// full (capacity 0). The two policies entering there have paths that
// split right after it, so they need at least two copies of some
// rules and their fragments take the sub-MILP; the other two policies
// are certified by counting, and the stitch is accepted.
func mixedProblem(t *testing.T) *Problem {
	t.Helper()
	prob := determinismProblem(t)
	in := prob.Routing.Sets[topology.PortID(prob.Policies[0].Ingress)].Paths[0].Switches[0]
	if err := prob.Network.SetSwitchCapacity(in, 0); err != nil {
		t.Fatal(err)
	}
	return prob
}

// decomposedFixtures are the accepted-stitch fixtures: one whose
// fragments are all certified and one that mixes certified and MILP
// fragments.
var decomposedFixtures = []struct {
	name  string
	build func(*testing.T) *Problem
	path  SolvePath
}{
	{"certified", determinismProblem, SolveCertified},
	{"mixed", mixedProblem, SolveDecomposed},
}

// decomposeCounts reads a traced Place's decompose span: the fragments
// stitched, how many of them are certified, and the sub-solves run
// (cache misses).
func decomposeCounts(t *testing.T, tr *obs.Trace) (fragments, certified, subSolves int64) {
	t.Helper()
	for _, sp := range tr.Roots()[0].Children() {
		if sp.Name() != "decompose" {
			continue
		}
		fragments, _ = sp.Counter("fragments")
		certified, _ = sp.Counter("certified")
		for _, ch := range sp.Children() {
			if ch.Name() == "sub_solve" {
				subSolves++
			}
		}
		return fragments, certified, subSolves
	}
	t.Fatal("no decompose span")
	return 0, 0, 0
}

// TestDecomposedMatchesJoint: the decomposed solve must prove the same
// optimum as the joint MILP — the soundness claim behind the stitch
// acceptance rule — and the stitched placement must respect every
// capacity. It runs on certified fragments alone and on a mix of
// certified and MILP fragments.
func TestDecomposedMatchesJoint(t *testing.T) {
	for _, fx := range decomposedFixtures {
		t.Run(fx.name, func(t *testing.T) {
			prob := fx.build(t)
			opts := Options{} // no merging, ObjTotalRules: the decomposable regime
			if !decomposable(prob, opts.withDefaults()) {
				t.Fatal("fixture unexpectedly not decomposable")
			}
			tr := obs.NewTrace()
			pl, err := Place(prob, Options{Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			if pl.Status != StatusOptimal {
				t.Fatalf("decomposed status %v", pl.Status)
			}
			fragments, certified, _ := decomposeCounts(t, tr)
			if pl.Stats.SolvePath != fx.path || fragments != int64(len(prob.Policies)) {
				t.Fatalf("solve path %q with %d fragments, want %q with %d", pl.Stats.SolvePath, fragments, fx.path, len(prob.Policies))
			}
			if fx.path == SolveDecomposed && (certified == 0 || certified == fragments) {
				t.Fatalf("%d of %d fragments certified, want a mix", certified, fragments)
			}
			joint := jointSolve(t, prob, opts)
			if joint.Status != StatusOptimal {
				t.Fatalf("joint status %v", joint.Status)
			}
			if pl.Objective != joint.Objective || pl.TotalRules != joint.TotalRules {
				t.Errorf("decomposed (obj %g, %d rules) != joint (obj %g, %d rules)",
					pl.Objective, pl.TotalRules, joint.Objective, joint.TotalRules)
			}
			for _, sw := range prob.Network.Switches() {
				if used := pl.RuleCountAt(sw.ID); used > sw.Capacity {
					t.Errorf("switch %d over capacity: %d > %d", sw.ID, used, sw.Capacity)
				}
			}
		})
	}
}

// TestDecomposedDeterministicAcrossWorkers: certified and mixed
// decomposed answers place the same bytes for Workers ∈ {1, 2, 8}. A
// certified answer reports no workers, since no LP ran.
func TestDecomposedDeterministicAcrossWorkers(t *testing.T) {
	for _, fx := range decomposedFixtures {
		t.Run(fx.name, func(t *testing.T) {
			var base *Placement
			for _, w := range []int{1, 2, 8} {
				pl, err := Place(fx.build(t), Options{Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				want := w
				if fx.path == SolveCertified {
					want = 0
				}
				if pl.Stats.Workers != want {
					t.Errorf("workers=%d: Stats.Workers = %d, want %d", w, pl.Stats.Workers, want)
				}
				if base == nil {
					base = pl
					continue
				}
				if pl.TotalRules != base.TotalRules || pl.Stats.SolvePath != base.Stats.SolvePath || !reflect.DeepEqual(pl.Assign, base.Assign) {
					t.Errorf("workers=%d: placement differs from workers=1", w)
				}
			}
		})
	}
}

// greedyAboveOptimumProblem builds an instance where greedy is feasible
// but strictly above the optimum on every sub-problem: two one-drop
// policies enter at switch 1, which is full (capacity 0), and each
// has the paths [1, 2, 4] and [1, 3, 4]. Greedy puts a copy on 2 and on
// 3, 2 rules per policy; the optimum puts one copy on 4, where the two
// copies fit (capacity 2).
func greedyAboveOptimumProblem(t *testing.T) *Problem {
	t.Helper()
	topo := topology.NewNetwork()
	for _, sw := range []topology.Switch{{ID: 1}, {ID: 2, Capacity: 2}, {ID: 3, Capacity: 2}, {ID: 4, Capacity: 2}} {
		if err := topo.AddSwitch(sw); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]topology.SwitchID{{1, 2}, {1, 3}, {2, 4}, {3, 4}} {
		if err := topo.AddLink(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	rt := routing.NewRouting()
	var pols []*policy.Policy
	for in := topology.PortID(1); in <= 2; in++ {
		if err := topo.AddPort(topology.ExternalPort{ID: in, Switch: 1, Ingress: true}); err != nil {
			t.Fatal(err)
		}
		rt.Add(routing.Path{Ingress: in, Egress: 9, Switches: []topology.SwitchID{1, 2, 4}})
		rt.Add(routing.Path{Ingress: in, Egress: 9, Switches: []topology.SwitchID{1, 3, 4}})
		pols = append(pols, policy.MustNew(int(in), []policy.Rule{mk("1*******", policy.Drop, 1)}))
	}
	if err := topo.AddPort(topology.ExternalPort{ID: 9, Switch: 4, Egress: true}); err != nil {
		t.Fatal(err)
	}
	return &Problem{Network: topo, Routing: rt, Policies: pols}
}

// TestCertificateRejectsGreedyAboveOptimum: where greedy is feasible
// but above the counting bound, the certificate must not fire, and
// Place must return the sub-MILPs' optimum. A certificate that accepts
// any total above the bound returns greedy's 4 rules here.
func TestCertificateRejectsGreedyAboveOptimum(t *testing.T) {
	prob := greedyAboveOptimumProblem(t)
	gr, err := GreedyPlace(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gr.Status != StatusFeasible || gr.TotalRules != 4 {
		t.Fatalf("greedy: %v with %d rules, want feasible with 4", gr.Status, gr.TotalRules)
	}
	pl, err := Place(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Status != StatusOptimal || pl.TotalRules != 2 || pl.Stats.SolvePath != SolveDecomposed {
		t.Fatalf("Place: %v with %d rules on path %q, want optimal with 2 on %q",
			pl.Status, pl.TotalRules, pl.Stats.SolvePath, SolveDecomposed)
	}
	if joint := jointSolve(t, prob, Options{}); joint.TotalRules != pl.TotalRules {
		t.Errorf("joint optimum %d rules, decomposed %d", joint.TotalRules, pl.TotalRules)
	}
	verifyPlacement(t, prob, pl)
}

// TestCertifiedFragmentMeetsEncoding: a certified fragment meets every
// row of its encoding and reports no solver effort, and the row check
// the rulefitdebug invariant runs catches a broken cover and an
// overfull switch.
func TestCertifiedFragmentMeetsEncoding(t *testing.T) {
	prob := fig3Problem(t, 10)
	enc, err := buildEncoding(prob, Options{}.withDefaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pl, ok := certify(enc)
	if !ok {
		t.Fatal("slack Fig. 3 instance not certified")
	}
	st := pl.Stats
	//lint:exactfloat a counting proof reports the exact 0 gap and an integral bound
	if pl.Status != StatusOptimal || pl.TotalRules != 3 || st.BestBound != 3 || st.Gap != 0 ||
		st.BnBNodes != 0 || st.SimplexIters != 0 || st.Workers != 0 || st.SolvePath != SolveCertified {
		t.Fatalf("certified fragment: %v, %d rules, stats %+v", pl.Status, pl.TotalRules, st)
	}
	if v := encodingViolation(enc, pl); v != "" {
		t.Fatalf("certified placement breaks its encoding: %s", v)
	}
	verifyPlacement(t, prob, pl)

	// Lift one DROP: its cover rows go unmet.
	broken := cloneFragment(pl)
	broken.Assign[0][1] = nil
	if v := encodingViolation(enc, broken); !strings.Contains(v, "cover") {
		t.Errorf("lifted drop: violation %q, want an unmet cover", v)
	}
	// Squeeze every switch to capacity 0: the placement overfills one.
	tight := fig3Problem(t, 0)
	encTight, err := buildEncoding(tight, Options{}.withDefaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := encodingViolation(encTight, pl); !strings.Contains(v, "capacity") {
		t.Errorf("zero capacities: violation %q, want an overfull switch", v)
	}
}

// sharedBottleneckProblem builds an instance whose per-policy optima
// are guaranteed to collide on one switch: three identical one-drop
// policies whose only path is [A, B] with cap(A) = cap(B) = 2. Each
// independent solve places its single drop on the same switch (the
// subproblems are isomorphic, the solver deterministic), so the stitch
// always violates that switch's capacity and the joint fallback must
// spread 2+1 — feasible, optimal at 3.
func sharedBottleneckProblem(t *testing.T) *Problem {
	t.Helper()
	topo := topology.NewNetwork()
	const a, b = topology.SwitchID(1), topology.SwitchID(2)
	for _, sw := range []topology.Switch{{ID: a, Capacity: 2}, {ID: b, Capacity: 2}} {
		if err := topo.AddSwitch(sw); err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.AddLink(a, b); err != nil {
		t.Fatal(err)
	}
	rt := routing.NewRouting()
	var pols []*policy.Policy
	for i := 1; i <= 3; i++ {
		in := topology.PortID(i)
		if err := topo.AddPort(topology.ExternalPort{ID: in, Switch: a, Ingress: true}); err != nil {
			t.Fatal(err)
		}
		rt.Add(routing.Path{Ingress: in, Egress: 9, Switches: []topology.SwitchID{a, b}})
		pols = append(pols, policy.MustNew(int(in), []policy.Rule{mk("1*******", policy.Drop, 1)}))
	}
	if err := topo.AddPort(topology.ExternalPort{ID: 9, Switch: b, Egress: true}); err != nil {
		t.Fatal(err)
	}
	return &Problem{Network: topo, Routing: rt, Policies: pols}
}

// TestDecomposedFallbackOnSharedCapacity drives the stitch-rejection
// branch: independent optima overload a shared switch, so Place must
// fall back to the joint solve and return the capacity-respecting
// joint optimum.
func TestDecomposedFallbackOnSharedCapacity(t *testing.T) {
	prob := sharedBottleneckProblem(t)
	pl, err := Place(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Status != StatusOptimal || pl.Objective != 3 {
		t.Fatalf("status %v obj %g, want optimal obj 3", pl.Status, pl.Objective)
	}
	for _, sw := range prob.Network.Switches() {
		if used := pl.RuleCountAt(sw.ID); used > sw.Capacity {
			t.Errorf("switch %d over capacity: %d > %d (stitch accepted a violating placement)",
				sw.ID, used, sw.Capacity)
		}
	}
}

// TestDecomposedSolutionCacheByteIdentity is the contract the stateful
// delta path rests on: re-solving a lightly-edited instance with a
// warmed SolutionCache must reproduce the cold decomposed answer byte
// for byte — assignments AND the deterministic solver-effort stats the
// daemon serializes. On the mixed fixture, MILP fragments pass through
// the cache too.
func TestDecomposedSolutionCacheByteIdentity(t *testing.T) {
	edit := func(prob *Problem) {
		pol := prob.Policies[0]
		rules := append([]policy.Rule(nil), pol.Rules...)
		maxPrio := 0
		for _, r := range rules {
			if r.Priority > maxPrio {
				maxPrio = r.Priority
			}
		}
		pattern := []byte(strings.Repeat("*", pol.Width()))
		copy(pattern, "110101")
		rules = append(rules, mk(string(pattern), policy.Drop, maxPrio+1))
		prob.Policies[0] = policy.MustNew(pol.Ingress, rules)
	}
	for _, fx := range decomposedFixtures {
		t.Run(fx.name, func(t *testing.T) {
			// Warm run: solve the base instance to fill the cache, then
			// the edited instance (one policy changed, the rest served
			// from cache).
			base := fx.build(t)
			cache := NewSolutionCache(len(base.Policies))
			if _, err := Place(base, Options{SolutionCache: cache}); err != nil {
				t.Fatal(err)
			}
			edited := fx.build(t)
			edit(edited)
			tr := obs.NewTrace()
			warm, err := Place(edited, Options{SolutionCache: cache, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			st := cache.Stats()
			if want := int64(len(edited.Policies) - 1); st.Hits != want {
				t.Errorf("warm solve hit %d fragments, want %d (misses %d)", st.Hits, want, st.Misses)
			}
			if warm.Stats.SolvePath != fx.path {
				t.Fatalf("warm solve path %q, want %q", warm.Stats.SolvePath, fx.path)
			}
			// More MILP fragments than sub-solves: at least one came
			// from the cache.
			if fragments, certified, subSolves := decomposeCounts(t, tr); fx.path == SolveDecomposed &&
				(certified == 0 || fragments-certified <= subSolves) {
				t.Fatalf("%d fragments, %d certified, %d solved: no certified and cached MILP mix",
					fragments, certified, subSolves)
			}

			// Cold run of the identical edited instance, no cache.
			coldProb := fx.build(t)
			edit(coldProb)
			cold, err := Place(coldProb, Options{})
			if err != nil {
				t.Fatal(err)
			}

			warm.Stats.SolveTime, cold.Stats.SolveTime = 0, 0
			if !reflect.DeepEqual(warm, cold) {
				t.Errorf("warm and cold decomposed placements differ:\nwarm: %+v\ncold: %+v", warm, cold)
			}
		})
	}
}

// TestStitchSolvePath: a stitch is certified only when every fragment
// is.
func TestStitchSolvePath(t *testing.T) {
	frag := func(path SolvePath) *Placement {
		return &Placement{Policies: []*policy.Policy{nil}, Assign: [][][]topology.SwitchID{nil}, Stats: Stats{SolvePath: path}}
	}
	for _, tc := range []struct {
		frags []SolvePath
		want  SolvePath
	}{
		{[]SolvePath{SolveCertified, SolveCertified}, SolveCertified},
		{[]SolvePath{SolveCertified, SolveDecomposed}, SolveDecomposed},
		{[]SolvePath{SolveDecomposed, SolveCertified}, SolveDecomposed},
		{[]SolvePath{SolveDecomposed, SolveDecomposed}, SolveDecomposed},
	} {
		var frags []*Placement
		for _, p := range tc.frags {
			frags = append(frags, frag(p))
		}
		if got := stitch(frags, Options{}).Stats.SolvePath; got != tc.want {
			t.Errorf("stitch of %v: path %q, want %q", tc.frags, got, tc.want)
		}
	}
}

// TestStitchStats pins stitch's aggregation rule for every ilp.Stats
// field, found by reflection: counters and BestBound add; Workers,
// LastIncumbentAtNode and RootGap take the max; the stitch of proven
// fragments is proven (Gap 0, StopNone). A field added to ilp.Stats
// without a rule in stitch fails here.
func TestStitchStats(t *testing.T) {
	maxRule := map[string]bool{"Workers": true, "LastIncumbentAtNode": true, "RootGap": true}
	var frags []*Placement
	for _, scale := range []int64{10, 1} {
		frag := &Placement{Policies: []*policy.Policy{nil}, Assign: [][][]topology.SwitchID{nil}}
		v := reflect.ValueOf(&frag.Stats.Stats).Elem()
		for f := 0; f < v.NumField(); f++ {
			// Distinct in every field; the first fragment holds the larger
			// value, so a max is not the last value seen.
			switch fv := v.Field(f); fv.Kind() {
			case reflect.Int:
				fv.SetInt(scale * int64(f+1))
			case reflect.Float64:
				fv.SetFloat(float64(scale*int64(f+1)) + 0.5)
			default:
				t.Fatalf("ilp.Stats.%s: no rule for kind %v", v.Type().Field(f).Name, fv.Kind())
			}
		}
		frags = append(frags, frag)
	}
	got := reflect.ValueOf(stitch(frags, Options{}).Stats.Stats)
	a, b := reflect.ValueOf(frags[0].Stats.Stats), reflect.ValueOf(frags[1].Stats.Stats)
	want := reflect.New(reflect.TypeOf(ilp.Stats{})).Elem()
	for f := 0; f < want.NumField(); f++ {
		name, w := want.Type().Field(f).Name, want.Field(f)
		switch {
		case name == "Gap" || name == "StopReason":
			// Zero: every fragment proved its optimum.
		case maxRule[name]:
			w.Set(a.Field(f))
		case w.Kind() == reflect.Int:
			w.SetInt(a.Field(f).Int() + b.Field(f).Int())
		default:
			w.SetFloat(a.Field(f).Float() + b.Field(f).Float())
		}
		if g := got.Field(f).Interface(); !reflect.DeepEqual(g, w.Interface()) {
			t.Errorf("stitched %s = %v, want %v", name, g, w.Interface())
		}
	}
}

// TestDecomposableGate pins the regimes the decomposition must stay
// out of: merging, non-default objectives, satisfy-only, monitors,
// single-policy instances, and the SAT backend all disqualify.
func TestDecomposableGate(t *testing.T) {
	prob := determinismProblem(t)
	base := Options{}.withDefaults()
	if !decomposable(prob, base) {
		t.Error("default multi-policy instance should be decomposable")
	}
	for name, opts := range map[string]Options{
		"merging":     {Merging: true},
		"minmax":      {Objective: ObjMinMaxLoad},
		"traffic":     {Objective: ObjTraffic},
		"satisfyonly": {SatisfyOnly: true},
		"sat":         {Backend: BackendSAT},
		"monitors":    {Monitors: []Monitor{{Switch: 1}}},
	} {
		if decomposable(prob, opts.withDefaults()) {
			t.Errorf("%s: should not be decomposable", name)
		}
	}
	single := &Problem{Network: prob.Network, Routing: prob.Routing, Policies: prob.Policies[:1]}
	if decomposable(single, base) {
		t.Error("single-policy instance should not be decomposable")
	}
}
