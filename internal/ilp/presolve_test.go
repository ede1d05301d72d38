package ilp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// boundsOf copies a model's declared variable bounds into fresh slices,
// the same shape Solve hands to presolve.
func boundsOf(m *Model) (lo, hi []float64) {
	lo = make([]float64, len(m.vars))
	hi = make([]float64, len(m.vars))
	for j, v := range m.vars {
		lo[j], hi[j] = v.lo, v.hi
	}
	return lo, hi
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

// TestPresolveEqualityFixesSingleton: an equality row with one variable
// must pin that variable from both sides (EQ is propagated as LE and
// GE), leaving lo == hi.
func TestPresolveEqualityFixesSingleton(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 10, 1)
	m.AddConstraint([]Term{{x, 2}}, EQ, 4, "fix")
	lo, hi := boundsOf(m)
	var stats Stats
	if res := presolve(m, lo, hi, &stats); res != presolveOK {
		t.Fatalf("presolve = %v, want OK", res)
	}
	if !near(lo[x], 2) || !near(hi[x], 2) {
		t.Errorf("x bounds = [%g, %g], want fixed at 2", lo[x], hi[x])
	}
	if stats.PresolveFix == 0 {
		t.Error("PresolveFix not counted")
	}
}

// TestPresolveEqualityRowPropagation: x + y == 5 with x in [0,3] must
// tighten y from both directions — the LE side caps hi[y] at 5 and the
// GE side lifts lo[y] to 5 - hi[x] = 2 — while x stays untouched.
func TestPresolveEqualityRowPropagation(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, 3, 1)
	y := m.AddVar("y", 0, 10, 1)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 5, "sum")
	lo, hi := boundsOf(m)
	var stats Stats
	if res := presolve(m, lo, hi, &stats); res != presolveOK {
		t.Fatalf("presolve = %v, want OK", res)
	}
	if !near(lo[x], 0) || !near(hi[x], 3) {
		t.Errorf("x bounds = [%g, %g], want [0, 3] unchanged", lo[x], hi[x])
	}
	if !near(lo[y], 2) || !near(hi[y], 5) {
		t.Errorf("y bounds = [%g, %g], want [2, 5]", lo[y], hi[y])
	}
}

// TestPresolveNegativeCoefficientFlips: in y - x <= 0 the negative
// coefficient on x means the row's slack raises lo[x] (a lower-bound
// flip) while the positive coefficient on y lowers hi[y].
func TestPresolveNegativeCoefficientFlips(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, 3, 1)
	y := m.AddVar("y", 2, 10, 1)
	m.AddConstraint([]Term{{y, 1}, {x, -1}}, LE, 0, "order")
	lo, hi := boundsOf(m)
	var stats Stats
	if res := presolve(m, lo, hi, &stats); res != presolveOK {
		t.Fatalf("presolve = %v, want OK", res)
	}
	if !near(hi[y], 3) {
		t.Errorf("hi[y] = %g, want 3 (y <= x <= 3)", hi[y])
	}
	if !near(lo[x], 2) {
		t.Errorf("lo[x] = %g, want 2 (x >= y >= 2)", lo[x])
	}
}

// TestPresolveNegativeCoefficientIntegerRounding: 2x >= 5 propagates as
// -2x <= -5; the implied bound x >= 2.5 must round up to 3 for an
// integer variable, never down.
func TestPresolveNegativeCoefficientIntegerRounding(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 10, 1)
	m.AddConstraint([]Term{{x, 2}}, GE, 5, "atleast")
	lo, hi := boundsOf(m)
	var stats Stats
	if res := presolve(m, lo, hi, &stats); res != presolveOK {
		t.Fatalf("presolve = %v, want OK", res)
	}
	if !near(lo[x], 3) {
		t.Errorf("lo[x] = %g, want ceil(2.5) = 3", lo[x])
	}
	if !near(hi[x], 10) {
		t.Errorf("hi[x] = %g, want 10 unchanged", hi[x])
	}
}

// TestPresolveDetectsInfeasibleRow: when a row's minimum activity
// already exceeds its RHS (here via the GE side: x >= 5 with x <= 3),
// presolve must report infeasibility rather than emit crossed bounds.
func TestPresolveDetectsInfeasibleRow(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, 3, 1)
	m.AddConstraint([]Term{{x, 1}}, GE, 5, "impossible")
	lo, hi := boundsOf(m)
	var stats Stats
	if res := presolve(m, lo, hi, &stats); res != presolveInfeasible {
		t.Fatalf("presolve = %v, want infeasible", res)
	}
}

// TestPresolveFixpointChain: a chain of coupled rows needs more than
// one sweep to reach the fixpoint — x1 <= x0, x2 <= x1 with x0 pinned
// by an equality only resolves x2 after x1 tightens.
func TestPresolveFixpointChain(t *testing.T) {
	m := NewModel()
	x0 := m.AddInteger("x0", 0, 10, 1)
	x1 := m.AddInteger("x1", 0, 10, 1)
	x2 := m.AddInteger("x2", 0, 10, 1)
	m.AddConstraint([]Term{{x0, 1}}, EQ, 2, "pin")
	m.AddConstraint([]Term{{x1, 1}, {x0, -1}}, LE, 0, "x1<=x0")
	m.AddConstraint([]Term{{x2, 1}, {x1, -1}}, LE, 0, "x2<=x1")
	lo, hi := boundsOf(m)
	var stats Stats
	if res := presolve(m, lo, hi, &stats); res != presolveOK {
		t.Fatalf("presolve = %v, want OK", res)
	}
	if !near(hi[x1], 2) || !near(hi[x2], 2) {
		t.Errorf("chain bounds hi[x1]=%g hi[x2]=%g, want both 2", hi[x1], hi[x2])
	}
}

// TestSolveRandomKnapsacksMatchEnumeration: on random weighted multi-
// knapsack instances — the only models here whose capacity rows have
// non-unit coefficients — the solver must agree with brute-force
// enumeration of every 0/1 point on status and optimal objective. The
// solution vectors themselves may differ when distinct optima tie: these
// synthetic objectives tie freely. The placement objective is covered by
// the stricter byte-identity tests in internal/core.
func TestSolveRandomKnapsacksMatchEnumeration(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		m := randomKnapsackModel(seed)
		sol, err := Solve(m, Options{TimeLimit: 30 * time.Second})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := bruteForceBinary(m)
		if math.IsNaN(want) {
			if sol.Status != Infeasible {
				t.Errorf("seed %d: status %v, enumeration found no feasible point", seed, sol.Status)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Errorf("seed %d: status %v, want Optimal", seed, sol.Status)
			continue
		}
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Errorf("seed %d: objective %g, enumeration optimum %g", seed, sol.Objective, want)
		}
		if err := VerifySolution(m, sol.Values); err != nil {
			t.Errorf("seed %d: solution infeasible: %v", seed, err)
		}
	}
}

// randomKnapsackModel builds a seeded binary minimization with a few
// weighted capacity rows.
func randomKnapsackModel(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel()
	n := 8 + rng.Intn(6)
	vars := make([]int, n)
	for j := 0; j < n; j++ {
		vars[j] = m.AddBinary("x", -float64(1+rng.Intn(20)))
	}
	rows := 2 + rng.Intn(3)
	for r := 0; r < rows; r++ {
		var terms []Term
		total := 0
		for _, v := range vars {
			if rng.Intn(3) == 0 {
				continue
			}
			w := 1 + rng.Intn(9)
			total += w
			terms = append(terms, Term{Var: v, Coef: float64(w)})
		}
		if len(terms) < 3 {
			continue
		}
		m.AddConstraint(terms, LE, float64(total/2), "cap")
	}
	return m
}
