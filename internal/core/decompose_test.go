package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

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
// split right after it, so they need at least two copies of some rules
// and fail the counting certificate, while the other two policies
// certify. Policy 0 ends the decomposition, and the joint MILP answers.
func mixedProblem(t *testing.T) *Problem {
	t.Helper()
	prob := determinismProblem(t)
	in := prob.Routing.Sets[topology.PortID(prob.Policies[0].Ingress)].Paths[0].Switches[0]
	if err := prob.Network.SetSwitchCapacity(in, 0); err != nil {
		t.Fatal(err)
	}
	return prob
}

// decomposedFixtures are the decomposable fixtures: one whose fragments
// all certify, and one where policy 0 fails the certificate and the
// joint MILP answers.
var decomposedFixtures = []struct {
	name  string
	build func(*testing.T) *Problem
	path  SolvePath
}{
	{"certified", determinismProblem, SolveCertified},
	{"mixed", mixedProblem, SolveFallback},
}

// decomposeCounts reads a traced Place's decompose span: the fragments
// stitched (0 on a fallback), whether a policy failed the certificate,
// and the sub-problems certified or tried (cache misses).
func decomposeCounts(t *testing.T, tr *obs.Trace) (fragments, uncertified, subSolves int64) {
	t.Helper()
	for _, sp := range tr.Roots()[0].Children() {
		if sp.Name() != "decompose" {
			continue
		}
		fragments, _ = sp.Counter("fragments")
		uncertified, _ = sp.Counter("uncertified")
		for _, ch := range sp.Children() {
			if ch.Name() == "sub_solve" {
				subSolves++
			}
		}
		return fragments, uncertified, subSolves
	}
	t.Fatal("no decompose span")
	return 0, 0, 0
}

// TestDecomposedMatchesJoint: the decomposed solve must prove the same
// optimum as the joint MILP — the soundness claim behind the stitch
// acceptance rule — and the stitched placement must respect every
// capacity. A certified stitch runs no solver; a policy that fails the
// certificate ends the decomposition, and the one joint solve answers
// with the joint MILP's placement.
func TestDecomposedMatchesJoint(t *testing.T) {
	for _, fx := range decomposedFixtures {
		t.Run(fx.name, func(t *testing.T) {
			prob := fx.build(t)
			opts := Options{} // no merging, ObjTotalRules: the decomposable regime
			if !decomposable(prob, opts.withDefaults()) {
				t.Fatal("fixture unexpectedly not decomposable")
			}
			tr := obs.NewTrace()
			rec := obs.NewFlightRecorder(obs.FlightOpts{Size: 1 << 16})
			pl, err := Place(prob, Options{Trace: tr, SolverSink: rec})
			if err != nil {
				t.Fatal(err)
			}
			solves := 0
			for _, e := range fullTrace(t, rec) {
				if e.Kind == obs.KindDone {
					solves++
				}
			}
			if pl.Status != StatusOptimal {
				t.Fatalf("decomposed status %v", pl.Status)
			}
			fragments, uncertified, subSolves := decomposeCounts(t, tr)
			if pl.Stats.SolvePath != fx.path {
				t.Fatalf("solve path %q, want %q", pl.Stats.SolvePath, fx.path)
			}
			switch fx.path {
			case SolveCertified:
				if fragments != int64(len(prob.Policies)) || uncertified != 0 || solves != 0 {
					t.Fatalf("%d fragments, uncertified %d, %d solves; want %d, 0, 0",
						fragments, uncertified, solves, len(prob.Policies))
				}
				//lint:exactfloat a counting proof reports the exact 0 gap and an integral bound
				if st := pl.Stats; st.BestBound != pl.Objective || st.Gap != 0 || st.BnBNodes != 0 || st.Variables == 0 {
					t.Fatalf("certified stitch stats %+v, objective %g", st, pl.Objective)
				}
			case SolveFallback:
				if fragments != 0 || uncertified != 1 || subSolves != 1 || solves != 1 {
					t.Fatalf("%d fragments, uncertified %d, %d sub-problems tried, %d solves; want 0, 1, 1, 1",
						fragments, uncertified, subSolves, solves)
				}
			}
			joint := jointSolve(t, prob, opts)
			if joint.Status != StatusOptimal {
				t.Fatalf("joint status %v", joint.Status)
			}
			if pl.Objective != joint.Objective || pl.TotalRules != joint.TotalRules {
				t.Errorf("decomposed (obj %g, %d rules) != joint (obj %g, %d rules)",
					pl.Objective, pl.TotalRules, joint.Objective, joint.TotalRules)
			}
			if fx.path == SolveFallback && !reflect.DeepEqual(pl.Assign, joint.Assign) {
				t.Errorf("fallback placement differs from the joint MILP's")
			}
			for _, sw := range prob.Network.Switches() {
				if used := pl.RuleCountAt(sw.ID); used > sw.Capacity {
					t.Errorf("switch %d over capacity: %d > %d", sw.ID, used, sw.Capacity)
				}
			}
		})
	}
}

// TestDecomposedDeterministicAcrossWorkers: certified and fallback
// answers place the same bytes on every run, and report the branch &
// bound pool they ran: none for a certified answer, since no LP ran,
// and min(GOMAXPROCS, 16) workers for a fallback. That the pool's size
// cannot change the bytes is internal/ilp's TestPoolSizeInvariant.
func TestDecomposedDeterministicAcrossWorkers(t *testing.T) {
	for _, fx := range decomposedFixtures {
		t.Run(fx.name, func(t *testing.T) {
			want := min(runtime.GOMAXPROCS(0), 16)
			if fx.path == SolveCertified {
				want = 0
			}
			var base *Placement
			for run := 0; run < 2; run++ {
				pl, err := Place(fx.build(t), Options{})
				if err != nil {
					t.Fatal(err)
				}
				if pl.Stats.Workers != want {
					t.Errorf("Stats.Workers = %d, want %d", pl.Stats.Workers, want)
				}
				if base == nil {
					base = pl
					continue
				}
				if pl.TotalRules != base.TotalRules || pl.Stats.SolvePath != base.Stats.SolvePath || !reflect.DeepEqual(pl.Assign, base.Assign) {
					t.Error("placement differs between two runs")
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
// Place must fall back to the joint MILP's optimum. A certificate that
// accepts any total above the bound returns greedy's 4 rules here.
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
	if pl.Status != StatusOptimal || pl.TotalRules != 2 || pl.Stats.SolvePath != SolveFallback {
		t.Fatalf("Place: %v with %d rules on path %q, want optimal with 2 on %q",
			pl.Status, pl.TotalRules, pl.Stats.SolvePath, SolveFallback)
	}
	if joint := jointSolve(t, prob, Options{}); joint.TotalRules != pl.TotalRules {
		t.Errorf("joint optimum %d rules, Place %d", joint.TotalRules, pl.TotalRules)
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
// warmed SolutionCache must reproduce the cold answer byte for byte —
// assignments AND the deterministic stats the daemon serializes. On
// the certified fixture the cache serves every unedited policy; on the
// fallback fixture the edited policy 0 still fails the certificate
// first, so nothing is served and the joint MILP answers.
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
			wantHits := int64(len(edited.Policies) - 1)
			if fx.path == SolveFallback {
				wantHits = 0
			}
			if st := cache.Stats(); st.Hits != wantHits {
				t.Errorf("warm solve hit %d fragments, want %d (misses %d)", st.Hits, wantHits, st.Misses)
			}
			if warm.Stats.SolvePath != fx.path {
				t.Fatalf("warm solve path %q, want %q", warm.Stats.SolvePath, fx.path)
			}
			// One sub-problem certified or tried afresh: the edited one.
			if _, _, subSolves := decomposeCounts(t, tr); subSolves != 1 {
				t.Fatalf("warm solve tried %d sub-problems, want 1", subSolves)
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
				t.Errorf("warm and cold placements differ:\nwarm: %+v\ncold: %+v", warm, cold)
			}
		})
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
