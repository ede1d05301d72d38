package ilp

import (
	"strings"
	"sync"
	"testing"
	"time"

	"rulefit/internal/obs"
	"rulefit/internal/obs/traceview"
)

// foldFixture is one solve the event consumers are checked on.
type foldFixture struct {
	name string
	m    *Model
	opts Options
}

// foldFixtures covers every way a solve ends: proven optimal (by the
// root dive, and by a tree with strong-branch trials and stale skips),
// a node limit with and without an incumbent, infeasibility proven by
// the root LP, and unbounded. The tree and node-limit fixtures have a
// root gap above 0, so the root dive cannot close them.
func foldFixtures() []foldFixture {
	limit := 60 * time.Second
	oneVarRow := NewModel()
	x := oneVarRow.AddBinary("x", 5)
	oneVarRow.AddBinary("y", 1)
	oneVarRow.AddConstraint([]Term{{x, 1}}, GE, 1, "fix")

	contradictory := NewModel()
	a := contradictory.AddBinary("a", 1)
	b := contradictory.AddBinary("b", 1)
	contradictory.AddConstraint([]Term{{a, 1}, {b, 1}}, GE, 2, "both")
	contradictory.AddConstraint([]Term{{a, 1}, {b, 1}}, LE, 1, "atmost1")

	// Pairwise covers force x+y+z >= 1.5 in the LP, which the capacity
	// row forbids.
	rootInfeasible := NewModel()
	p := rootInfeasible.AddBinary("p", 1)
	q := rootInfeasible.AddBinary("q", 1)
	r := rootInfeasible.AddBinary("r", 1)
	rootInfeasible.AddConstraint([]Term{{p, 1}, {q, 1}}, GE, 1, "pq")
	rootInfeasible.AddConstraint([]Term{{q, 1}, {r, 1}}, GE, 1, "qr")
	rootInfeasible.AddConstraint([]Term{{p, 1}, {r, 1}}, GE, 1, "pr")
	rootInfeasible.AddConstraint([]Term{{p, 1}, {q, 1}, {r, 1}}, LE, 1.4, "cap")

	unbounded := NewModel()
	u := unbounded.AddVar("u", 0, Inf, -1)
	unbounded.AddConstraint([]Term{{u, -1}}, LE, 0, "noop")

	return []foldFixture{
		{"root dive s11/n20", parallelFixture(11, 20), Options{TimeLimit: limit}},
		{"branching s18/n24", parallelFixture(18, 24), Options{TimeLimit: limit}},
		{"root dive s9/n20", parallelFixture(9, 20), Options{TimeLimit: limit}},
		{"node limit, incumbent", parallelFixture(21, 20), Options{NodeLimit: 3}},
		{"node limit, none", parallelFixture(5, 20), Options{NodeLimit: 3}},
		{"root dive s7/n16", parallelFixture(7, 16), Options{TimeLimit: limit}},
		{"one-variable row", oneVarRow, Options{TimeLimit: limit}},
		{"contradictory rows", contradictory, Options{TimeLimit: limit}},
		{"root LP infeasible", rootInfeasible, Options{TimeLimit: limit}},
		{"unbounded", unbounded, Options{TimeLimit: limit}},
	}
}

// wantFold sums sols' Stats into the solver counters a registry fed
// their events must hold.
func wantFold(sols []Solution) map[string]int64 {
	w := map[string]int64{}
	for _, sol := range sols {
		st := sol.Stats
		w["solves "+sol.Status.String()]++
		w["nodes"] += int64(st.BnBNodes)
		w["simplex iterations"] += int64(st.SimplexIters)
		w["LU refactorizations"] += int64(st.LURefactors)
		w["incumbents"] += int64(st.Incumbents)
		w["branched"] += int64(st.Branched)
		w["pruned bound"] += int64(st.PrunedBound)
		w["pruned infeasible"] += int64(st.PrunedInfeasible)
		w["integral"] += int64(st.IntegralLeaves)
		w["lost"] += int64(st.LostSubtrees)
		w["stale skips"] += int64(st.PrunedStale)
	}
	return w
}

// TestMetricsFoldMatchesStats: a registry fed the event streams of
// concurrent solves holds exactly their summed Stats, for every
// pool size. Each solve's refactorizations and iterations reach
// it only through the done event's totals.
func TestMetricsFoldMatchesStats(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		reg := obs.NewMetrics()
		fixtures := foldFixtures()
		sols := make([]Solution, len(fixtures))
		errs := make([]error, len(fixtures))
		var wg sync.WaitGroup
		for i, f := range fixtures {
			wg.Add(1)
			go func() {
				defer wg.Done()
				opts := f.opts
				opts.Sink = reg
				sols[i], errs[i] = solve(f.m, opts, w)
			}()
		}
		wg.Wait()
		seen := map[Status]bool{}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d %s: %v", w, fixtures[i].name, err)
			}
			seen[sols[i].Status] = true
		}
		for _, st := range []Status{Optimal, Feasible, Infeasible, LimitReached, Unbounded} {
			if !seen[st] {
				t.Fatalf("workers=%d: no fixture ends %v", w, st)
			}
		}
		var exposition strings.Builder
		if err := reg.WritePrometheus(&exposition); err != nil {
			t.Fatal(err)
		}
		s, err := obs.PrometheusSamples(strings.NewReader(exposition.String()))
		if err != nil {
			t.Fatal(err)
		}
		want := wantFold(sols)
		for name, series := range map[string]string{
			"solves optimal":      `rulefit_solves_total{status="optimal"}`,
			"solves feasible":     `rulefit_solves_total{status="feasible"}`,
			"solves infeasible":   `rulefit_solves_total{status="infeasible"}`,
			"solves limit":        `rulefit_solves_total{status="limit"}`,
			"solves unbounded":    `rulefit_solves_total{status="unbounded"}`,
			"nodes":               "rulefit_solve_nodes_sum",
			"simplex iterations":  "rulefit_solve_simplex_iters_sum",
			"LU refactorizations": "rulefit_lu_refactorizations_total",
			"incumbents":          "rulefit_incumbents_total",
			"branched":            `rulefit_node_outcomes_total{outcome="branched"}`,
			"pruned bound":        `rulefit_node_outcomes_total{outcome="pruned_bound"}`,
			"pruned infeasible":   `rulefit_node_outcomes_total{outcome="pruned_infeasible"}`,
			"integral":            `rulefit_node_outcomes_total{outcome="integral"}`,
			"lost":                `rulefit_node_outcomes_total{outcome="lost"}`,
			"stale skips":         "rulefit_stale_skips_total",
		} {
			if got, ok := s[series]; !ok || got != float64(want[name]) {
				t.Errorf("workers=%d: /metrics %s reads %g (present %v), Stats sum to %d %s", w, series, got, ok, want[name], name)
			}
		}
		for _, name := range []string{"LU refactorizations", "stale skips", "incumbents"} {
			if want[name] == 0 {
				t.Errorf("workers=%d: no fixture exercises %s", w, name)
			}
		}
	}
}

// TestTraceEffortMatchesStats: the effort traceview reports for a
// full trace is the solve's own, strong-branch trials and a root LP
// that proves infeasibility included.
func TestTraceEffortMatchesStats(t *testing.T) {
	for _, f := range foldFixtures() {
		var buf strings.Builder
		jw := obs.NewJSONLWriter(&buf)
		opts := f.opts
		opts.Sink = jw
		sol, err := Solve(f.m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := jw.Flush(); err != nil {
			t.Fatal(err)
		}
		sum, err := traceview.Summarize(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.Check(); err != nil {
			t.Errorf("%s: %v", f.name, err)
		}
		st := sol.Stats
		if sum.Nodes != st.BnBNodes || sum.SimplexIters != st.SimplexIters || sum.LURefactors != st.LURefactors {
			t.Errorf("%s: trace reports %d nodes, %d iters, %d refactors; Stats %d, %d, %d", f.name,
				sum.Nodes, sum.SimplexIters, sum.LURefactors, st.BnBNodes, st.SimplexIters, st.LURefactors)
		}
		if f.name == "branching s18/n24" && st.StrongBranchEvals == 0 {
			t.Errorf("%s: no strong-branch trials, so the check above proves less", f.name)
		}
	}
}
