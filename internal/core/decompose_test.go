package core

import (
	"reflect"
	"strings"
	"testing"

	"rulefit/internal/ilp"
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

// TestDecomposedMatchesJoint: the decomposed solve must prove the same
// optimum as the joint MILP — the soundness claim behind the stitch
// acceptance rule — and the stitched placement must respect every
// capacity.
func TestDecomposedMatchesJoint(t *testing.T) {
	prob := determinismProblem(t)
	opts := Options{} // no merging, ObjTotalRules: the decomposable regime
	if !decomposable(prob, opts.withDefaults()) {
		t.Fatal("fixture unexpectedly not decomposable")
	}
	pl, err := Place(prob, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Status != StatusOptimal {
		t.Fatalf("decomposed status %v", pl.Status)
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
// daemon serializes.
func TestDecomposedSolutionCacheByteIdentity(t *testing.T) {
	build := func() *Problem { return determinismProblem(t) }
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

	// Warm run: solve the base instance to fill the cache, then the
	// edited instance (one policy changed, the rest served from cache).
	base := build()
	cache := NewSolutionCache(len(base.Policies))
	if _, err := Place(base, Options{SolutionCache: cache}); err != nil {
		t.Fatal(err)
	}
	edited := build()
	edit(edited)
	warm, err := Place(edited, Options{SolutionCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if want := int64(len(edited.Policies) - 1); st.Hits != want {
		t.Errorf("warm solve hit %d fragments, want %d (misses %d)", st.Hits, want, st.Misses)
	}

	// Cold run of the identical edited instance, no cache.
	coldProb := build()
	edit(coldProb)
	cold, err := Place(coldProb, Options{})
	if err != nil {
		t.Fatal(err)
	}

	warm.Stats.SolveTime, cold.Stats.SolveTime = 0, 0
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("warm and cold decomposed placements differ:\nwarm: %+v\ncold: %+v", warm, cold)
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
