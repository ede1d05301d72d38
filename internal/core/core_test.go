package core

import (
	"math/rand"
	"testing"
	"time"

	"rulefit/internal/dataplane"
	"rulefit/internal/match"
	"rulefit/internal/policy"
	"rulefit/internal/routing"
	"rulefit/internal/topology"
	"rulefit/internal/verify"
)

func mk(pattern string, a policy.Action, prio int) policy.Rule {
	return policy.Rule{Match: match.MustParseTernary(pattern), Action: a, Priority: prio}
}

// fig3Problem builds the paper's running example (Fig. 3): ingress l1 at
// s1 with routes s1-s2-s3 and s1-s2-s4-s5, and a 3-rule policy.
func fig3Problem(t *testing.T, capacity int) *Problem {
	t.Helper()
	topo := topology.Fig3(capacity)
	rt, err := routing.BuildRouting(topo, []routing.PortPair{{In: 1, Out: 2}, {In: 1, Out: 3}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.MustNew(1, []policy.Rule{
		mk("1100****", policy.Permit, 3),
		mk("11******", policy.Drop, 2),
		mk("00******", policy.Drop, 1),
	})
	return &Problem{Network: topo, Routing: rt, Policies: []*policy.Policy{pol}}
}

func place(t *testing.T, prob *Problem, opts Options) *Placement {
	t.Helper()
	opts.TimeLimit = 30 * time.Second
	pl, err := Place(prob, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// verifyPlacement compiles tables and checks semantics exhaustively
// (policies in these tests use narrow headers) plus capacities.
func verifyPlacement(t *testing.T, prob *Problem, pl *Placement) {
	t.Helper()
	net, err := pl.BuildTables(prob)
	if err != nil {
		t.Fatal(err)
	}
	if v := verify.Exhaustive(net, prob.Routing, pl.Policies); len(v) > 0 {
		t.Fatalf("semantic violations: %v", v)
	}
	if v := verify.Capacities(net, prob.Network); len(v) > 0 {
		t.Fatalf("capacity violations: %v", v)
	}
}

func TestPlaceFig3ILP(t *testing.T) {
	prob := fig3Problem(t, 10)
	pl := place(t, prob, Options{Backend: BackendILP})
	if pl.Status != StatusOptimal {
		t.Fatalf("status = %v", pl.Status)
	}
	verifyPlacement(t, prob, pl)
	// Plenty of capacity: everything fits at the shared prefix (s1 or
	// s2), so the optimum is 3 rules total (no duplication).
	if pl.TotalRules != 3 {
		t.Errorf("TotalRules = %d, want 3", pl.TotalRules)
	}
}

func TestPlaceFig3SAT(t *testing.T) {
	prob := fig3Problem(t, 10)
	pl := place(t, prob, Options{Backend: BackendSAT})
	if pl.Status != StatusOptimal {
		t.Fatalf("status = %v", pl.Status)
	}
	verifyPlacement(t, prob, pl)
	if pl.TotalRules != 3 {
		t.Errorf("TotalRules = %d, want 3", pl.TotalRules)
	}
}

func TestPlaceFig3TightCapacityForcesSplit(t *testing.T) {
	// Capacity 1 per switch: the permit+drop pair cannot co-locate, so
	// the instance is infeasible (the drop 11** requires its permit on
	// the same switch).
	prob := fig3Problem(t, 1)
	pl := place(t, prob, Options{})
	if pl.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", pl.Status)
	}
	// Capacity 2: permit+drop pair fits on one switch, the second drop
	// goes elsewhere; still feasible.
	prob2 := fig3Problem(t, 2)
	pl2 := place(t, prob2, Options{})
	if pl2.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", pl2.Status)
	}
	verifyPlacement(t, prob2, pl2)
}

func TestPlaceReplicationAcrossBranches(t *testing.T) {
	// Force rules off the shared prefix: s1 and s2 get capacity 0, so
	// every drop must replicate onto both branches (paper's r_{1,3}
	// illustration).
	prob := fig3Problem(t, 10)
	prob.Network.SetSwitchCapacity(1, 0)
	prob.Network.SetSwitchCapacity(2, 0)
	pl := place(t, prob, Options{})
	if pl.Status != StatusOptimal {
		t.Fatalf("status = %v", pl.Status)
	}
	verifyPlacement(t, prob, pl)
	// Each of the 2 drops (plus 1 dependent permit) now appears on both
	// branches: 3 rules per branch = 6.
	if pl.TotalRules != 6 {
		t.Errorf("TotalRules = %d, want 6 (full duplication)", pl.TotalRules)
	}
}

func TestPlaceStatusStringAndStats(t *testing.T) {
	prob := fig3Problem(t, 10)
	pl := place(t, prob, Options{})
	if pl.Stats.Variables == 0 || pl.Stats.Constraints == 0 {
		t.Errorf("stats not populated: %+v", pl.Stats)
	}
	if pl.Stats.Backend != BackendILP {
		t.Errorf("backend = %v", pl.Stats.Backend)
	}
	for _, s := range []Status{StatusOptimal, StatusFeasible, StatusInfeasible, StatusLimit} {
		if s.String() == "" {
			t.Error("empty status string")
		}
	}
	if BackendILP.String() != "ilp" || BackendSAT.String() != "sat" {
		t.Error("backend strings wrong")
	}
	if ObjTotalRules.String() != "total-rules" || ObjTraffic.String() != "traffic" {
		t.Error("objective strings wrong")
	}
}

func TestPlaceValidatesProblem(t *testing.T) {
	if _, err := Place(&Problem{}, Options{}); err == nil {
		t.Error("nil fields should fail validation")
	}
	topo := topology.Fig3(10)
	rt := routing.NewRouting()
	pol := policy.MustNew(1, []policy.Rule{mk("1*", policy.Drop, 1)})
	prob := &Problem{Network: topo, Routing: rt, Policies: []*policy.Policy{pol}}
	if _, err := Place(prob, Options{}); err == nil {
		t.Error("policy without routing should fail validation")
	}
}

func TestObjectiveTrafficPushesDropsUpstream(t *testing.T) {
	// Linear chain: with the traffic objective, drops sit at the
	// ingress switch; with slack capacity everywhere the rule objective
	// is indifferent but traffic prefers hop 0.
	topo, err := topology.Linear(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := routing.BuildRouting(topo, []routing.PortPair{{In: 0, Out: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.MustNew(0, []policy.Rule{mk("11******", policy.Drop, 1)})
	prob := &Problem{Network: topo, Routing: rt, Policies: []*policy.Policy{pol}}
	pl := place(t, prob, Options{Objective: ObjTraffic})
	if pl.Status != StatusOptimal {
		t.Fatalf("status = %v", pl.Status)
	}
	sws := pl.Assign[0][0]
	if len(sws) != 1 || sws[0] != 0 {
		t.Errorf("drop placed at %v, want ingress switch 0", sws)
	}
	verifyPlacement(t, prob, pl)
}

func TestObjectiveTrafficSAT(t *testing.T) {
	topo, err := topology.Linear(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := routing.BuildRouting(topo, []routing.PortPair{{In: 0, Out: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.MustNew(0, []policy.Rule{mk("1*******", policy.Drop, 1)})
	prob := &Problem{Network: topo, Routing: rt, Policies: []*policy.Policy{pol}}
	pl := place(t, prob, Options{Objective: ObjTraffic, Backend: BackendSAT})
	if pl.Status != StatusOptimal {
		t.Fatalf("status = %v", pl.Status)
	}
	if sws := pl.Assign[0][0]; len(sws) != 1 || sws[0] != 0 {
		t.Errorf("drop placed at %v, want switch 0", sws)
	}
}

func TestMergingSavesSlots(t *testing.T) {
	// Two ingresses share a switch; identical blacklist drop in both
	// policies merges into one slot there.
	topo := topology.NewNetwork()
	for i := 1; i <= 3; i++ {
		if err := topo.AddSwitch(topology.Switch{ID: topology.SwitchID(i), Capacity: 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.AddLink(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink(2, 3); err != nil {
		t.Fatal(err)
	}
	for _, p := range []topology.ExternalPort{
		{ID: 1, Switch: 1, Ingress: true},
		{ID: 2, Switch: 2, Ingress: true},
		{ID: 3, Switch: 3, Egress: true},
	} {
		if err := topo.AddPort(p); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := routing.BuildRouting(topo, []routing.PortPair{{In: 1, Out: 3}, {In: 2, Out: 3}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	shared := mk("1010****", policy.Drop, 1)
	p1 := policy.MustNew(1, []policy.Rule{shared})
	p2 := policy.MustNew(2, []policy.Rule{shared})
	prob := &Problem{Network: topo, Routing: rt, Policies: []*policy.Policy{p1, p2}}

	noMerge := place(t, prob, Options{})
	withMerge := place(t, prob, Options{Merging: true})
	if noMerge.Status != StatusOptimal || withMerge.Status != StatusOptimal {
		t.Fatalf("statuses: %v, %v", noMerge.Status, withMerge.Status)
	}
	if noMerge.TotalRules != 2 {
		t.Errorf("unmerged total = %d, want 2", noMerge.TotalRules)
	}
	if withMerge.TotalRules != 1 {
		t.Errorf("merged total = %d, want 1 (shared slot at s3)", withMerge.TotalRules)
	}
	verifyPlacement(t, prob, withMerge)

	// SAT backend agrees.
	withMergeSAT := place(t, prob, Options{Merging: true, Backend: BackendSAT})
	if withMergeSAT.TotalRules != 1 {
		t.Errorf("SAT merged total = %d, want 1", withMergeSAT.TotalRules)
	}
	verifyPlacement(t, prob, withMergeSAT)
}

// sharedDropProblem is one switch with capacity 1 and two ingresses
// whose policies hold the same DROP. Unmerged it is infeasible; merged,
// both DROPs share one slot.
func sharedDropProblem(t *testing.T) *Problem {
	t.Helper()
	topo := topology.NewNetwork()
	if err := topo.AddSwitch(topology.Switch{ID: 1, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []topology.ExternalPort{
		{ID: 1, Switch: 1, Ingress: true},
		{ID: 2, Switch: 1, Ingress: true},
		{ID: 3, Switch: 1, Egress: true},
	} {
		if err := topo.AddPort(p); err != nil {
			t.Fatal(err)
		}
	}
	rt := routing.NewRouting()
	rt.Add(routing.Path{Ingress: 1, Egress: 3, Switches: []topology.SwitchID{1}})
	rt.Add(routing.Path{Ingress: 2, Egress: 3, Switches: []topology.SwitchID{1}})
	shared := mk("11******", policy.Drop, 1)
	return &Problem{Network: topo, Routing: rt, Policies: []*policy.Policy{
		policy.MustNew(1, []policy.Rule{shared}),
		policy.MustNew(2, []policy.Rule{shared}),
	}}
}

func TestMergingMakesInfeasibleFeasible(t *testing.T) {
	// Table II's effect: merging makes an infeasible instance feasible.
	prob := sharedDropProblem(t)
	noMerge := place(t, prob, Options{})
	if noMerge.Status != StatusInfeasible {
		t.Fatalf("unmerged status = %v, want infeasible", noMerge.Status)
	}
	withMerge := place(t, prob, Options{Merging: true})
	if withMerge.Status != StatusOptimal {
		t.Fatalf("merged status = %v, want optimal", withMerge.Status)
	}
	if withMerge.TotalRules != 1 {
		t.Errorf("merged total = %d", withMerge.TotalRules)
	}
	verifyPlacement(t, prob, withMerge)
}

func TestPathSlicingReducesVariables(t *testing.T) {
	prob := fig3Problem(t, 10)
	routing.AssignTrafficSlices(prob.Routing)
	// Rewrite the policy to destination-specific rules that each only
	// apply to one egress's traffic slice.
	ip2, plen2 := routing.EgressPrefix(2)
	ip3, plen3 := routing.EgressPrefix(3)
	r1 := policy.Rule{Match: match.DstPrefixTernary(ip2, plen2), Action: policy.Drop, Priority: 2}
	r2 := policy.Rule{Match: match.DstPrefixTernary(ip3, plen3), Action: policy.Drop, Priority: 1}
	prob.Policies = []*policy.Policy{policy.MustNew(1, []policy.Rule{r1, r2})}

	full := place(t, prob, Options{})
	sliced := place(t, prob, Options{PathSlicing: true})
	if sliced.Stats.Variables >= full.Stats.Variables {
		t.Errorf("slicing did not reduce variables: %d vs %d", sliced.Stats.Variables, full.Stats.Variables)
	}
	if sliced.Status != StatusOptimal {
		t.Fatalf("status = %v", sliced.Status)
	}
	// Sliced placement still preserves semantics (verified on the
	// 104-bit header via sampling).
	net, err := sliced.BuildTables(prob)
	if err != nil {
		t.Fatal(err)
	}
	if v := verify.Semantics(net, prob.Routing, sliced.Policies, verify.Config{Seed: 3}); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestRemoveRedundantOption(t *testing.T) {
	prob := fig3Problem(t, 10)
	// Append a rule fully shadowed by the drop above it.
	pol := prob.Policies[0]
	rules := append([]policy.Rule{}, pol.Rules...)
	rules = append(rules, mk("1111****", policy.Drop, 0))
	prob.Policies = []*policy.Policy{policy.MustNew(1, rules)}
	pl := place(t, prob, Options{RemoveRedundant: true})
	if pl.Status != StatusOptimal {
		t.Fatalf("status = %v", pl.Status)
	}
	if len(pl.Policies[0].Rules) >= len(rules) {
		t.Errorf("redundancy removal did not shrink the policy: %d rules", len(pl.Policies[0].Rules))
	}
	verifyPlacement(t, prob, pl)
}

func TestSatisfyOnlyModes(t *testing.T) {
	prob := fig3Problem(t, 10)
	for _, backend := range []Backend{BackendILP, BackendSAT} {
		pl := place(t, prob, Options{Backend: backend, SatisfyOnly: true})
		if pl.Status != StatusOptimal && pl.Status != StatusFeasible {
			t.Fatalf("backend %v: status = %v", backend, pl.Status)
		}
		verifyPlacement(t, prob, pl)
	}
}

func TestGreedyPlaceFig3(t *testing.T) {
	prob := fig3Problem(t, 10)
	pl, err := GreedyPlace(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Status != StatusFeasible {
		t.Fatalf("status = %v", pl.Status)
	}
	verifyPlacement(t, prob, pl)
	// Greedy with slack capacity places everything at the ingress: 3.
	if pl.TotalRules != 3 {
		t.Errorf("greedy total = %d, want 3", pl.TotalRules)
	}
}

func TestGreedyPlaceInfeasible(t *testing.T) {
	prob := fig3Problem(t, 1)
	pl, err := GreedyPlace(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", pl.Status)
	}
}

func TestReplicateEverywhereBaseline(t *testing.T) {
	prob := fig3Problem(t, 1000)
	pl, err := ReplicateEverywhere(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	verifyPlacement(t, prob, pl)
	// 2 paths x 3 placed rules = 6 (all three rules participate).
	if pl.TotalRules != 6 {
		t.Errorf("baseline total = %d, want 6", pl.TotalRules)
	}
	opt := place(t, prob, Options{})
	if opt.TotalRules >= pl.TotalRules {
		t.Errorf("optimal (%d) should beat replication (%d)", opt.TotalRules, pl.TotalRules)
	}
	if got := PXRBound(prob); got != 6 {
		t.Errorf("PXRBound = %d, want 6", got)
	}
}

func TestIncrementalAdd(t *testing.T) {
	prob := fig3Problem(t, 5)
	pl := place(t, prob, Options{})
	if pl.Status != StatusOptimal {
		t.Fatal(pl.Status)
	}
	spare := SpareCapacities(prob, pl)
	total := 0
	for _, v := range spare {
		total += v
	}
	if total != 5*5-pl.TotalRules {
		t.Errorf("spare total = %d, want %d", total, 25-pl.TotalRules)
	}

	// New ingress at s4 (add a port first), with one drop rule.
	if err := prob.Network.AddPort(topology.ExternalPort{ID: 9, Switch: 4, Ingress: true}); err != nil {
		t.Fatal(err)
	}
	newRt := routing.NewRouting()
	newRt.Add(routing.Path{Ingress: 9, Egress: 3, Switches: []topology.SwitchID{4, 5}})
	newPol := policy.MustNew(9, []policy.Rule{mk("01******", policy.Drop, 1)})
	inc, err := IncrementalAdd(prob, pl, []*policy.Policy{newPol}, newRt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Status != StatusOptimal && inc.Status != StatusFeasible {
		t.Fatalf("incremental status = %v", inc.Status)
	}

	// Combined deployment preserves both policies' semantics.
	baseNet, err := pl.BuildTables(prob)
	if err != nil {
		t.Fatal(err)
	}
	incProb := &Problem{Network: prob.Network, Routing: newRt, Policies: []*policy.Policy{newPol}}
	incNet, err := inc.BuildTables(incProb)
	if err != nil {
		t.Fatal(err)
	}
	baseNet.Merge(incNet)
	if v := verify.Exhaustive(baseNet, prob.Routing, pl.Policies); len(v) > 0 {
		t.Fatalf("old policies broken: %v", v)
	}
	if v := verify.Exhaustive(baseNet, newRt, []*policy.Policy{newPol}); len(v) > 0 {
		t.Fatalf("new policy broken: %v", v)
	}
	if v := verify.Capacities(baseNet, prob.Network); len(v) > 0 {
		t.Fatalf("capacity violations after merge: %v", v)
	}
}

func TestIncrementalAddInfeasibleWhenFull(t *testing.T) {
	prob := fig3Problem(t, 3)
	pl := place(t, prob, Options{})
	if pl.Status != StatusOptimal {
		t.Fatal(pl.Status)
	}
	// Consume everything: a policy needing more slots than remain on its
	// single path.
	if err := prob.Network.AddPort(topology.ExternalPort{ID: 9, Switch: 4, Ingress: true}); err != nil {
		t.Fatal(err)
	}
	newRt := routing.NewRouting()
	newRt.Add(routing.Path{Ingress: 9, Egress: 3, Switches: []topology.SwitchID{4}})
	var rules []policy.Rule
	for i := 0; i < 10; i++ {
		tn := match.NewTernary(8).SetField(0, 4, uint64(i)).SetField(4, 4, 0xF)
		rules = append(rules, policy.Rule{Match: tn, Action: policy.Drop, Priority: 10 - i})
	}
	newPol := policy.MustNew(9, rules)
	inc, err := IncrementalAdd(prob, pl, []*policy.Policy{newPol}, newRt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible (10 rules, <=3 spare slots)", inc.Status)
	}
}

func TestIncrementalReroute(t *testing.T) {
	prob := fig3Problem(t, 5)
	pl := place(t, prob, Options{})
	if pl.Status != StatusOptimal {
		t.Fatal(pl.Status)
	}
	// Reroute ingress 1: drop the s3 branch, keep only s1-s2-s4-s5.
	newPaths := &routing.PathSet{Ingress: 1, Paths: []routing.Path{
		{Ingress: 1, Egress: 3, Switches: []topology.SwitchID{1, 2, 4, 5}},
	}}
	re, err := IncrementalReroute(prob, pl, 1, newPaths, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Status != StatusOptimal && re.Status != StatusFeasible {
		t.Fatalf("status = %v", re.Status)
	}
	newRt := routing.NewRouting()
	newRt.Sets[1] = newPaths
	reProb := &Problem{Network: prob.Network, Routing: newRt, Policies: re.Policies}
	net, err := re.BuildTables(reProb)
	if err != nil {
		t.Fatal(err)
	}
	if v := verify.Exhaustive(net, newRt, re.Policies); len(v) > 0 {
		t.Fatalf("rerouted policy broken: %v", v)
	}
}

// TestIncrementalRerouteKeepsSharedMergedSlot: rerouting a policy
// frees only the slots it held alone. The base placement puts both
// ingresses' DROP in one merged slot; lifting ingress 1 leaves ingress
// 2's rule in that slot, so the full switch cannot take ingress 1's
// DROP back.
func TestIncrementalRerouteKeepsSharedMergedSlot(t *testing.T) {
	prob := sharedDropProblem(t)
	pl := place(t, prob, Options{Merging: true})
	if pl.Status != StatusOptimal || pl.TotalRules != 1 {
		t.Fatalf("base placement %v with %d slots, want optimal with one merged slot", pl.Status, pl.TotalRules)
	}
	newPaths := &routing.PathSet{Ingress: 1, Paths: []routing.Path{
		{Ingress: 1, Egress: 3, Switches: []topology.SwitchID{1}},
	}}
	re, err := IncrementalReroute(prob, pl, 1, newPaths, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Status != StatusInfeasible {
		t.Fatalf("status = %v with %d rules beside ingress 2's kept rule on a capacity-1 switch, want infeasible",
			re.Status, re.TotalRules)
	}
}

func TestIncrementalRerouteUnknownIngress(t *testing.T) {
	prob := fig3Problem(t, 5)
	pl := place(t, prob, Options{})
	if _, err := IncrementalReroute(prob, pl, 42, &routing.PathSet{}, Options{}); err == nil {
		t.Error("unknown ingress should error")
	}
}

func TestEndToEndRandomProperty(t *testing.T) {
	// Random narrow-header policies over Fig. 3 topology with random
	// capacities: any OPTIMAL/FEASIBLE result must verify exhaustively;
	// SAT and ILP must agree on feasibility and on the optimum.
	rng := rand.New(rand.NewSource(71))
	const width = 8
	for trial := 0; trial < 25; trial++ {
		topo := topology.Fig3(2 + rng.Intn(5))
		rt, err := routing.BuildRouting(topo, []routing.PortPair{{In: 1, Out: 2}, {In: 1, Out: 3}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := 2 + rng.Intn(5)
		rules := make([]policy.Rule, 0, n)
		for i := 0; i < n; i++ {
			tn := match.NewTernary(width)
			for b := 0; b < width; b++ {
				switch rng.Intn(3) {
				case 0:
					tn = tn.SetBit(b, false)
				case 1:
					tn = tn.SetBit(b, true)
				}
			}
			a := policy.Permit
			if rng.Intn(2) == 0 {
				a = policy.Drop
			}
			rules = append(rules, policy.Rule{Match: tn, Action: a, Priority: n - i})
		}
		prob := &Problem{Network: topo, Routing: rt, Policies: []*policy.Policy{policy.MustNew(1, rules)}}

		ilpPl := place(t, prob, Options{Backend: BackendILP})
		satPl := place(t, prob, Options{Backend: BackendSAT})
		if (ilpPl.Status == StatusInfeasible) != (satPl.Status == StatusInfeasible) {
			t.Fatalf("trial %d: backends disagree: ilp=%v sat=%v", trial, ilpPl.Status, satPl.Status)
		}
		if ilpPl.Status == StatusInfeasible {
			continue
		}
		if ilpPl.Status == StatusOptimal && satPl.Status == StatusOptimal && ilpPl.TotalRules != satPl.TotalRules {
			t.Fatalf("trial %d: optima differ: ilp=%d sat=%d", trial, ilpPl.TotalRules, satPl.TotalRules)
		}
		verifyPlacement(t, prob, ilpPl)
		verifyPlacement(t, prob, satPl)
	}
}

func TestRuleCountAt(t *testing.T) {
	prob := fig3Problem(t, 10)
	pl := place(t, prob, Options{})
	total := 0
	for _, sw := range prob.Network.Switches() {
		total += pl.RuleCountAt(sw.ID)
	}
	if total != pl.TotalRules {
		t.Errorf("sum of RuleCountAt = %d, want TotalRules %d", total, pl.TotalRules)
	}
}

func TestBuildTablesRejectsBadPlacement(t *testing.T) {
	pl := &Placement{Status: StatusInfeasible}
	if _, err := pl.BuildTables(&Problem{}); err == nil {
		t.Error("BuildTables on infeasible placement should error")
	}
}

func TestOrderEntriesDetectsCycle(t *testing.T) {
	// Construct two pending entries with contradictory per-policy order
	// requirements (only possible if merging broke, so this guards the
	// error path).
	a := pendEntry{
		entry:   mustEntry("1*", policy.Permit),
		ruleIdx: map[int]int{0: 0, 1: 1},
	}
	b := pendEntry{
		entry:   mustEntry("11", policy.Drop),
		ruleIdx: map[int]int{0: 1, 1: 0},
	}
	if _, err := orderEntries([]pendEntry{a, b}); err == nil {
		t.Error("contradictory order must be detected as a cycle")
	}
	// Consistent order sorts fine.
	c := pendEntry{
		entry:   mustEntry("11", policy.Drop),
		ruleIdx: map[int]int{0: 1, 1: 2},
	}
	order, err := orderEntries([]pendEntry{a, c})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 0 {
		t.Errorf("order = %v, want permit first", order)
	}
}

func mustEntry(pattern string, a policy.Action) dataplane.Entry {
	return dataplane.Entry{
		Tags:   map[topology.PortID]bool{1: true},
		Match:  match.MustParseTernary(pattern),
		Action: a,
	}
}

func TestPlaceWithMultipathRouting(t *testing.T) {
	// ECMP-style fan-out: one ingress spread over 4 loopless shortest
	// paths in a fat-tree; every DROP must guard all of them.
	topo, err := topology.FatTree(4, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	ports := topo.Ports()
	pairs := []routing.PortPair{{In: ports[0].ID, Out: ports[len(ports)-1].ID}}
	rt, err := routing.BuildMultipathRouting(topo, pairs, 4)
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.MustNew(int(ports[0].ID), []policy.Rule{
		mk("1100****", policy.Permit, 3),
		mk("11******", policy.Drop, 2),
		mk("00******", policy.Drop, 1),
	})
	prob := &Problem{Network: topo, Routing: rt, Policies: []*policy.Policy{pol}}
	pl := place(t, prob, Options{})
	if pl.Status != StatusOptimal {
		t.Fatalf("status = %v", pl.Status)
	}
	verifyPlacement(t, prob, pl)
	// With capacity 6 the shared first/last hops can hold everything:
	// drops should not be replicated 4x.
	if pl.TotalRules > 6 {
		t.Errorf("TotalRules = %d; sharing across ECMP paths failed", pl.TotalRules)
	}
}
