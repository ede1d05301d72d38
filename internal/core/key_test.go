package core_test

import (
	"testing"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/match"
	"rulefit/internal/policy"
	"rulefit/internal/randgen"
	"rulefit/internal/spec"
	"rulefit/internal/topology"
)

// keyProblem is a five-switch instance for the key tests. Ingress 10
// has two paths over switches 1–4, one with a traffic slice; ingress
// 12 has one; switch 5 is on no path.
const keyProblem = `{
  "topology": {"type": "explicit",
    "switchList": [{"id": 1, "capacity": 4}, {"id": 2, "capacity": 4}, {"id": 3, "capacity": 4},
                   {"id": 4, "capacity": 4}, {"id": 5, "capacity": 4}],
    "links": [[1, 2], [2, 3], [3, 4], [1, 3], [2, 4], [4, 5]],
    "ports": [{"id": 10, "switch": 1, "ingress": true}, {"id": 12, "switch": 2, "ingress": true},
              {"id": 11, "switch": 4, "egress": true}]},
  "routing": {"paths": [
    {"ingress": 10, "egress": 11, "switches": [1, 2, 3, 4]},
    {"ingress": 10, "egress": 11, "switches": [1, 3, 4], "traffic": "0*******"},
    {"ingress": 12, "egress": 11, "switches": [2, 4]}]},
  "policies": [
    {"ingress": 10, "rules": [
      {"pattern": "1*0*****", "action": "drop", "priority": 30},
      {"pattern": "1*******", "action": "permit", "priority": 20},
      {"pattern": "***1****", "action": "drop", "priority": 10}]},
    {"ingress": 12, "rules": [{"pattern": "0*******", "action": "drop", "priority": 1}]}]
}`

// TestSubSolutionKeyDistinguishes changes one thing a certified
// fragment can read at a time and checks the fragment key moves, and
// that an off-path capacity leaves it alone.
func TestSubSolutionKeyDistinguishes(t *testing.T) {
	base := func() (*core.Problem, *policy.Policy, *core.Options) {
		sp, err := spec.LoadBytes([]byte(keyProblem))
		if err != nil {
			t.Fatal(err)
		}
		prob, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		opts := &core.Options{
			Backend: core.BackendILP, Objective: core.ObjTotalRules, TimeLimit: 10 * time.Second,
		}
		return prob, prob.Policies[0], opts
	}
	prob, pol, opts := base()
	want := core.SubSolutionKey(prob, pol, *opts)

	type edit func(prob *core.Problem, pol *policy.Policy, opts *core.Options)
	capacity := func(id topology.SwitchID) edit {
		return func(prob *core.Problem, _ *policy.Policy, _ *core.Options) {
			if err := prob.Network.SetSwitchCapacity(id, 9); err != nil {
				t.Fatal(err)
			}
		}
	}
	changes := []struct {
		name string
		edit edit
	}{
		{"rule priority", func(_ *core.Problem, pol *policy.Policy, _ *core.Options) { pol.Rules[1].Priority = 25 }},
		{"rule action", func(_ *core.Problem, pol *policy.Policy, _ *core.Options) { pol.Rules[1].Action = policy.Drop }},
		{"rule match bit", func(_ *core.Problem, pol *policy.Policy, _ *core.Options) {
			pol.Rules[1].Match = pol.Rules[1].Match.SetBit(0, true)
		}},
		{"match width", func(_ *core.Problem, pol *policy.Policy, _ *core.Options) {
			for i := range pol.Rules {
				pol.Rules[i].Match = match.MustParseTernary("*" + pol.Rules[i].Match.String())
			}
		}},
		{"default action", func(_ *core.Problem, pol *policy.Policy, _ *core.Options) { pol.Default = policy.Drop }},
		{"ingress", func(_ *core.Problem, pol *policy.Policy, _ *core.Options) { pol.Ingress = 12 }},
		{"path switches", func(prob *core.Problem, _ *policy.Policy, _ *core.Options) {
			prob.Routing.Sets[10].Paths[1].Switches = []topology.SwitchID{1, 2, 4}
		}},
		{"path traffic added", func(prob *core.Problem, _ *policy.Policy, _ *core.Options) {
			p := &prob.Routing.Sets[10].Paths[0]
			p.Traffic, p.HasTraffic = match.MustParseTernary("1*******"), true
		}},
		{"path traffic bits", func(prob *core.Problem, _ *policy.Policy, _ *core.Options) {
			prob.Routing.Sets[10].Paths[1].Traffic = match.MustParseTernary("00******")
		}},
		{"on-path capacity", capacity(3)},
		{"remove redundant", func(_ *core.Problem, _ *policy.Policy, o *core.Options) { o.RemoveRedundant = true }},
		{"path slicing", func(_ *core.Problem, _ *policy.Policy, o *core.Options) { o.PathSlicing = true }},
	}
	for _, c := range changes {
		prob, pol, opts := base()
		c.edit(prob, pol, opts)
		if core.SubSolutionKey(prob, pol, *opts) == want {
			t.Errorf("%s: fragment key unchanged", c.name)
		}
	}

	prob, pol, opts = base()
	capacity(5)(prob, pol, opts)
	if core.SubSolutionKey(prob, pol, *opts) != want {
		t.Error("off-path capacity changed the fragment key")
	}
}

// sessionProblem is perfbench's session-delta instance class (fat-tree
// k=4, 8 policies × 2 paths) with the given rules per policy.
func sessionProblem(t *testing.T, rules int) *core.Problem {
	t.Helper()
	inst, err := randgen.Generate(randgen.Config{
		Seed: 1, Topo: randgen.TopoFatTree, FatTreeK: 4, Ingresses: 8,
		PathsPerIngress: 2, RulesPerPolicy: rules, Capacity: randgen.CapSlack,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst.Problem
}

var keySink string

// TestCacheKeyAllocs keeps fmt and String renderings out of the cache
// keys a session edit builds: each policy in a key costs a few
// allocations however many rules it holds. (A rendering through fmt
// costs one or more per rule: 517 for policyKey on 100 rules.)
func TestCacheKeyAllocs(t *testing.T) {
	opts := core.Options{Backend: core.BackendILP, Objective: core.ObjTotalRules, TimeLimit: 10 * time.Second}
	for _, rules := range []int{100, 400} {
		prob := sessionProblem(t, rules)
		pol := prob.Policies[0]
		for _, k := range []struct {
			name  string
			limit float64
			key   func() string
		}{
			{"subSolutionKey", 16, func() string { return core.SubSolutionKey(prob, pol, opts) }},
			{"policyKey", 8, func() string { return core.PolicyKey(pol, true) }},
			{"mergeKey", 4 * float64(len(prob.Policies)), func() string { return core.MergeKey(prob.Policies) }},
		} {
			got := testing.AllocsPerRun(20, func() { keySink = k.key() })
			if got > k.limit {
				t.Errorf("%d rules: %s allocates %.0f times, want at most %.0f", rules, k.name, got, k.limit)
			}
		}
	}
}
