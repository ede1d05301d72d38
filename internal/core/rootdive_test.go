package core_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"rulefit/internal/bench"
	"rulefit/internal/core"
	"rulefit/internal/ilp"
	"rulefit/internal/spec"
	"rulefit/internal/verify"
)

// treeShape is the part of a solve's Stats that describes the tree it
// grew: every node outcome, the strong-branch trials, the incumbents
// and the warm-started node LPs.
type treeShape struct {
	nodes, strongBranch, branched, prunedBound, prunedInfeasible int
	integral, lost, stale, incumbents, lastIncumbentAt, warm     int
}

func shapeOf(st ilp.Stats) treeShape {
	return treeShape{st.BnBNodes, st.StrongBranchEvals, st.Branched, st.PrunedBound, st.PrunedInfeasible,
		st.IntegralLeaves, st.LostSubtrees, st.PrunedStale, st.Incumbents, st.LastIncumbentAtNode, st.WarmStartReuses}
}

// placementDigest is the first 12 hex digits of the SHA-256 of a
// placement's assignment and merged-rule switches as JSON.
func placementDigest(t *testing.T, pl *core.Placement) string {
	t.Helper()
	data, err := json.Marshal([]any{pl.Assign, pl.MergedAt})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))[:12]
}

// gapTrees are merge-grid's three cells whose root LP bound lies below
// the optimum (root gap 1.9-2.3%), so the root dive cannot prove any
// point optimal and the tree must. Each keeps the tree and the
// placement it had before the dive existed: pinned here as measured
// then.
var gapTrees = map[string]struct {
	shape  treeShape
	digest string
}{
	"m1/c8/merge": {treeShape{nodes: 50, strongBranch: 256, branched: 32, prunedBound: 14, prunedInfeasible: 2,
		integral: 2, stale: 15, incumbents: 2, lastIncumbentAt: 36, warm: 49}, "53810d93401f"},
	"m2/c8/merge": {treeShape{nodes: 5, strongBranch: 24, branched: 3, prunedBound: 1,
		integral: 1, stale: 2, incumbents: 1, lastIncumbentAt: 4, warm: 4}, "8a924a26c41a"},
	"m3/c8/merge": {treeShape{nodes: 131, strongBranch: 256, branched: 75, prunedBound: 54,
		integral: 2, stale: 20, incumbents: 2, lastIncumbentAt: 34, warm: 130}, "42da270702ae"},
}

// TestRootDiveOnMergeGrid solves perfbench's merge-grid cells (Table
// II's m = 1-3, C in {8, 9, 10}, merging off and on) and Fig. 7's
// c25/r20/s0 point as the daemon builds them, from their specs. Every
// answer's status and total match perfbench/reference.json (which
// leaves out m1/c10/off, perfbench's untimed warm-up), and every
// merging-off answer deploys verify-clean. Each cell whose root gap is
// 0 answers at node 1 with no strong-branch trial: the root is
// integral, or the root dive reaches a point that meets the root
// bound. The three gap cells keep their trees and placements.
func TestRootDiveOnMergeGrid(t *testing.T) {
	data, err := os.ReadFile("../../perfbench/reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var refs map[string]map[string]struct {
		Status     string `json:"status"`
		TotalRules *int   `json:"total_rules"`
	}
	if err := json.Unmarshal(data, &refs); err != nil {
		t.Fatal(err)
	}
	type cell struct {
		workload, name string
		cfg            bench.Config
		opts           core.Options
	}
	var cells []cell
	for m := 1; m <= 3; m++ {
		for _, c := range []int{8, 9, 10} {
			for _, merging := range []bool{false, true} {
				mode := "off"
				if merging {
					mode = "merge"
				}
				cells = append(cells, cell{"merge-grid", fmt.Sprintf("m%d/c%d/%s", m, c, mode),
					bench.Config{K: 4, Ingresses: 8, PathsPerIngress: 4, Rules: 8, Capacity: c, Mergeable: m},
					core.Options{Merging: merging, TimeLimit: 60 * time.Second}})
			}
		}
	}
	cells = append(cells, cell{"fig7-tight", "c25/r20/s0",
		bench.Config{K: 4, Ingresses: 8, PathsPerIngress: 8, Rules: 20, Capacity: 25},
		core.Options{TimeLimit: 10 * time.Second}})

	for _, c := range cells {
		built, err := bench.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		prob, err := spec.FromCore(built).Build()
		if err != nil {
			t.Fatal(err)
		}
		pl, err := core.Place(prob, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ref, ok := refs[c.workload][c.name]; ok {
			if pl.Status.String() != ref.Status || ref.TotalRules == nil || pl.TotalRules != *ref.TotalRules {
				want := -1
				if ref.TotalRules != nil {
					want = *ref.TotalRules
				}
				t.Errorf("%s: %v with %d rules, reference %s with %d", c.name, pl.Status, pl.TotalRules, ref.Status, want)
			}
		} else if c.name != "m1/c10/off" {
			t.Fatalf("reference.json has no %s/%s", c.workload, c.name)
		}
		if !c.opts.Merging {
			net, err := pl.BuildTables(prob)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if v := verify.Capacities(net, prob.Network); len(v) > 0 {
				t.Errorf("%s: capacity violation %v", c.name, v[0])
			}
			if v := verify.Semantics(net, prob.Routing, prob.Policies, verify.Config{}); len(v) > 0 {
				t.Errorf("%s: %d semantics violations, first %v", c.name, len(v), v[0])
			}
		}
		got := shapeOf(pl.Stats.Stats)
		if want, ok := gapTrees[c.name]; ok {
			if got != want.shape {
				t.Errorf("%s: tree %+v, want %+v", c.name, got, want.shape)
			}
			if d := placementDigest(t, pl); d != want.digest {
				t.Errorf("%s: placement digest %s, want %s", c.name, d, want.digest)
			}
			continue
		}
		//lint:exactfloat a proof reports a gap of exactly 0
		if got.nodes != 1 || got.strongBranch != 0 || pl.Stats.Gap != 0 {
			t.Errorf("%s: %d nodes, %d strong-branch trials, gap %g; want a proof at node 1 with none",
				c.name, got.nodes, got.strongBranch, pl.Stats.Gap)
		}
	}
}
