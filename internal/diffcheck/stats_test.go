package diffcheck

import (
	"math/rand"
	"testing"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/ilp"
	"rulefit/internal/randgen"
)

// TestStatsAccountingRandomLimits drives ilp.Solve through
// core.BuildModel on random instances under randomly drawn node and
// time limits, and checks the documented Stats invariants:
//
//   - every expanded node has exactly one outcome, so the per-outcome
//     counters sum to BnBNodes;
//   - NodeLimit is a hard cap on BnBNodes;
//   - a StopReason is never reported for a limit that was not set;
//   - a non-terminal status always carries a StopReason, and a cleanly
//     proven answer carries StopNone (unless a subtree was lost);
//   - Gap is 0 for proven optima, >= 0 for anytime solutions, and the
//     -1 sentinel otherwise.
func TestStatsAccountingRandomLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	solved := 0
	for seed := int64(1); seed <= 60; seed++ {
		inst, err := randgen.Generate(randgen.FromSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m, err := core.BuildModel(inst.Problem, core.Options{})
		if err != nil {
			continue // encoding-level infeasibility; nothing to solve
		}
		var o ilp.Options
		switch seed % 4 {
		case 0:
			o.NodeLimit = 1 + rng.Intn(8)
		case 1:
			o.TimeLimit = time.Duration(1+rng.Intn(1000)) * time.Nanosecond
		case 2:
			o.NodeLimit = 1 + rng.Intn(4)
			o.TimeLimit = time.Duration(1+rng.Intn(100)) * time.Microsecond
		default:
			// no limits: the answer must be proven
		}
		sol, err := ilp.Solve(m, o)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		solved++
		st := sol.Stats

		sum := st.Branched + st.PrunedBound + st.PrunedInfeasible + st.IntegralLeaves + st.LostSubtrees
		if sum != st.BnBNodes {
			t.Errorf("seed %d: outcome counters sum to %d, Nodes=%d (%+v)", seed, sum, st.BnBNodes, st)
		}
		if o.NodeLimit > 0 && st.BnBNodes > o.NodeLimit {
			t.Errorf("seed %d: Nodes=%d exceeds NodeLimit=%d", seed, st.BnBNodes, o.NodeLimit)
		}

		// StopReason precedence: a reason can only cite a limit that was
		// actually configured (or a genuinely lost subtree).
		switch st.StopReason {
		case ilp.StopDeadline:
			if o.TimeLimit == 0 {
				t.Errorf("seed %d: StopDeadline with no TimeLimit set", seed)
			}
		case ilp.StopNodeLimit:
			if o.NodeLimit == 0 {
				t.Errorf("seed %d: StopNodeLimit with no NodeLimit set", seed)
			}
		case ilp.StopNone, ilp.StopLostSubtree:
		default:
			t.Errorf("seed %d: unknown stop reason %v", seed, st.StopReason)
		}

		switch sol.Status {
		case ilp.Optimal, ilp.Infeasible:
			if st.StopReason != ilp.StopNone {
				t.Errorf("seed %d: proven %v but StopReason=%v", seed, sol.Status, st.StopReason)
			}
			if o.TimeLimit == 0 && o.NodeLimit == 0 && sol.Status == ilp.Optimal {
				//lint:exactfloat proven optimality must report an exactly-zero gap
				if st.Gap != 0 {
					t.Errorf("seed %d: optimal with Gap=%g", seed, st.Gap)
				}
			}
		default:
			// Limit-terminated: must explain why it stopped.
			if st.StopReason == ilp.StopNone {
				t.Errorf("seed %d: status %v with StopReason=none (%+v)", seed, sol.Status, st)
			}
			if st.Gap < 0 && st.Gap != -1 {
				t.Errorf("seed %d: Gap=%g is neither >=0 nor the -1 sentinel", seed, st.Gap)
			}
		}
	}
	if solved < 40 {
		t.Fatalf("only %d models solved; instance mix too degenerate", solved)
	}
}

// TestStatsDeadlinePrecedence pins the documented precedence directly:
// when both limits are set, an expired deadline wins over the node cap.
// A 1-nanosecond deadline is expired before the first poll, so with a
// generous node cap a non-terminal solve must blame the clock — either
// StopDeadline (caught at a poll) or StopLostSubtree (the deadline
// expired inside a node LP, which abandons that subtree) — but never
// StopNodeLimit.
func TestStatsDeadlinePrecedence(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		inst, err := randgen.Generate(randgen.FromSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.BuildModel(inst.Problem, core.Options{})
		if err != nil {
			continue
		}
		sol, err := ilp.Solve(m, ilp.Options{TimeLimit: time.Nanosecond, NodeLimit: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		switch sol.Status {
		case ilp.Optimal, ilp.Infeasible:
			// Solved at the root before the first deadline poll; fine.
		default:
			r := sol.Stats.StopReason
			if r != ilp.StopDeadline && r != ilp.StopLostSubtree {
				t.Errorf("seed %d: status %v, StopReason=%v, want deadline or lost-subtree", seed, sol.Status, r)
			}
		}
	}
}

// TestStatsNodeLimitPrecedence: with only a node cap set, a
// non-terminal solve must report StopNodeLimit (no clock is running, so
// StopDeadline is impossible and subtrees are only lost to numerics).
func TestStatsNodeLimitPrecedence(t *testing.T) {
	limited := 0
	for seed := int64(1); seed <= 30; seed++ {
		inst, err := randgen.Generate(randgen.FromSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.BuildModel(inst.Problem, core.Options{})
		if err != nil {
			continue
		}
		sol, err := ilp.Solve(m, ilp.Options{NodeLimit: 1})
		if err != nil {
			t.Fatal(err)
		}
		switch sol.Status {
		case ilp.Optimal, ilp.Infeasible:
			// Proven at the root; the cap never bit.
		default:
			limited++
			if r := sol.Stats.StopReason; r != ilp.StopNodeLimit {
				t.Errorf("seed %d: status %v, StopReason=%v, want node-limit", seed, sol.Status, r)
			}
			if sol.Stats.BnBNodes > 1 {
				t.Errorf("seed %d: NodeLimit=1 but Nodes=%d", seed, sol.Stats.BnBNodes)
			}
		}
	}
	if limited == 0 {
		t.Fatal("every instance solved at the root; NodeLimit precedence never exercised")
	}
}
