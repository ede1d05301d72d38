package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"rulefit/internal/deps"
	"rulefit/internal/policy"
	"rulefit/internal/routing"
	"rulefit/internal/topology"
)

// determinismProblem builds a fresh mid-size instance on every call:
// fat-tree routing, generated policies, and a shared blacklist so that
// merging (and dependency cycle breaking) is exercised. Rebuilding from
// scratch gives every internal map a fresh layout, so any iteration-order
// dependence shows up as run-to-run drift.
func determinismProblem(t *testing.T) *Problem {
	t.Helper()
	topo, err := topology.FatTree(4, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := routing.SpreadPairs(topo, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := routing.BuildRouting(topo, pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	blacklist := policy.GenerateBlacklist(4, 7)
	var pols []*policy.Policy
	for _, in := range rt.Ingresses() {
		p := policy.Generate(int(in), policy.GenConfig{NumRules: 8, Seed: 11})
		pols = append(pols, policy.WithBlacklist(p, blacklist))
	}
	return &Problem{Network: topo, Routing: rt, Policies: pols}
}

// cycleProblem builds a fresh instance whose merge groups form a
// precedence cycle: a shared drop and a shared (overlapping) permit
// appear in opposite priority orders across four policies, so
// deps.BreakCycles must evict a member — and the choice of witness
// policy is exactly the kind of decision map iteration used to leak into.
func cycleProblem(t *testing.T) *Problem {
	t.Helper()
	topo := topology.NewNetwork()
	const shared = topology.SwitchID(5)
	if err := topo.AddSwitch(topology.Switch{ID: shared, Capacity: 10}); err != nil {
		t.Fatal(err)
	}
	var pairs []routing.PortPair
	for i := 1; i <= 4; i++ {
		if err := topo.AddSwitch(topology.Switch{ID: topology.SwitchID(i), Capacity: 10}); err != nil {
			t.Fatal(err)
		}
		if err := topo.AddLink(topology.SwitchID(i), shared); err != nil {
			t.Fatal(err)
		}
		if err := topo.AddPort(topology.ExternalPort{ID: topology.PortID(i), Switch: topology.SwitchID(i), Ingress: true}); err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, routing.PortPair{In: topology.PortID(i), Out: 9})
	}
	if err := topo.AddPort(topology.ExternalPort{ID: 9, Switch: shared, Egress: true}); err != nil {
		t.Fatal(err)
	}
	rt, err := routing.BuildRouting(topo, pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Three shared rules per policy. The trailing drop keeps the permit
	// placeable (a permit is only installed when it protects traffic
	// from a lower-priority drop), and the drop/permit order flips
	// between the two policy shapes, giving the merge groups of the
	// drop and the permit opposing precedence edges — a cycle.
	dropFirst := []policy.Rule{
		mk("1010****", policy.Drop, 3),
		mk("10******", policy.Permit, 2),
		mk("100*****", policy.Drop, 1),
	}
	permitFirst := []policy.Rule{
		mk("10******", policy.Permit, 3),
		mk("1010****", policy.Drop, 2),
		mk("100*****", policy.Drop, 1),
	}
	return &Problem{Network: topo, Routing: rt, Policies: []*policy.Policy{
		policy.MustNew(1, dropFirst),
		policy.MustNew(2, permitFirst),
		policy.MustNew(3, dropFirst),
		policy.MustNew(4, permitFirst),
	}}
}

// determinismFixtures names every fresh-build problem the determinism
// tests cover.
func determinismFixtures() []struct {
	name  string
	build func(*testing.T) *Problem
} {
	return []struct {
		name  string
		build func(*testing.T) *Problem
	}{
		{"fattree", determinismProblem},
		{"mergecycle", cycleProblem},
	}
}

// TestILPModelDeterministic encodes the same problem twice from scratch
// and requires byte-identical LP serializations: variable order,
// constraint order, and coefficients must not depend on map iteration.
func TestILPModelDeterministic(t *testing.T) {
	for _, fx := range determinismFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			opts := Options{Merging: true}.withDefaults()
			lp := func() ([]byte, []deps.DummyRule) {
				enc, err := buildEncoding(fx.build(t), opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				m, _, _ := buildILPModel(enc, opts)
				var buf bytes.Buffer
				if err := m.WriteLP(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), enc.dummies
			}
			a, da := lp()
			b, db := lp()
			// The dummy-rule log is encoding state too: its order leaked
			// map iteration before deps.mergeOrderEdges sorted witnesses.
			if !reflect.DeepEqual(da, db) {
				t.Errorf("dummy rules differ between identical runs: %v vs %v", da, db)
			}
			if !bytes.Equal(a, b) {
				la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
				for i := 0; i < len(la) && i < len(lb); i++ {
					if !bytes.Equal(la[i], lb[i]) {
						t.Fatalf("LP output differs at line %d:\n  run 1: %s\n  run 2: %s", i+1, la[i], lb[i])
					}
				}
				t.Fatalf("LP outputs differ in length: %d vs %d lines", len(la), len(lb))
			}
		})
	}
}

// TestPlaceDeterministic solves the same instance twice from scratch and
// requires identical placements, not merely equally good ones.
func TestPlaceDeterministic(t *testing.T) {
	for _, fx := range determinismFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			opts := Options{Merging: true, TimeLimit: 60 * time.Second}
			run := func() *Placement {
				pl, err := Place(fx.build(t), opts)
				if err != nil {
					t.Fatal(err)
				}
				if pl.Status != StatusOptimal && pl.Status != StatusFeasible {
					t.Fatalf("status = %v", pl.Status)
				}
				return pl
			}
			a, b := run(), run()
			if a.Status != b.Status || a.TotalRules != b.TotalRules || a.Objective != b.Objective {
				t.Fatalf("summary differs: (%v, %d rules, obj %g) vs (%v, %d rules, obj %g)",
					a.Status, a.TotalRules, a.Objective, b.Status, b.TotalRules, b.Objective)
			}
			if !reflect.DeepEqual(a.Assign, b.Assign) {
				t.Error("rule assignments differ between identical runs")
			}
			if !reflect.DeepEqual(a.MergedAt, b.MergedAt) {
				t.Error("merge placements differ between identical runs")
			}
		})
	}
}
