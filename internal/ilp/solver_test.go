package ilp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func solveOK(t *testing.T, m *Model) Solution {
	t.Helper()
	sol, err := Solve(m, Options{TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestSolveTrivialBinary(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", 1)
	y := m.AddBinary("y", 2)
	// x + y >= 1, minimize x + 2y -> x=1, y=0.
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 1, "cover")
	sol := solveOK(t, m)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-1) > 1e-6 {
		t.Errorf("objective = %g, want 1", sol.Objective)
	}
	if sol.Values[x] != 1 || sol.Values[y] != 0 {
		t.Errorf("values = %v", sol.Values)
	}
	if err := VerifySolution(m, sol.Values); err != nil {
		t.Error(err)
	}
}

func TestSolveInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", 1)
	y := m.AddBinary("y", 1)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 3, "too-much")
	sol := solveOK(t, m)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveEqualityConstraint(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, 10, 1)
	y := m.AddVar("y", 0, 10, 3)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 6, "sum")
	m.AddConstraint([]Term{{x, 1}}, LE, 4, "capx")
	sol := solveOK(t, m)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// min x + 3y s.t. x+y=6, x<=4 -> x=4, y=2, obj=10.
	if math.Abs(sol.Objective-10) > 1e-6 {
		t.Errorf("objective = %g, want 10", sol.Objective)
	}
}

func TestSolvePureLP(t *testing.T) {
	// Classic: max 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18 (as min of the
	// negation): optimum x=2, y=6, value 36.
	m := NewModel()
	x := m.AddVar("x", 0, Inf, -3)
	y := m.AddVar("y", 0, Inf, -5)
	m.AddConstraint([]Term{{x, 1}}, LE, 4, "c1")
	m.AddConstraint([]Term{{y, 2}}, LE, 12, "c2")
	m.AddConstraint([]Term{{x, 3}, {y, 2}}, LE, 18, "c3")
	sol := solveOK(t, m)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-36)) > 1e-6 {
		t.Errorf("objective = %g, want -36", sol.Objective)
	}
	if math.Abs(sol.Values[x]-2) > 1e-6 || math.Abs(sol.Values[y]-6) > 1e-6 {
		t.Errorf("values = %v, want [2 6]", sol.Values)
	}
}

func TestSolveUnbounded(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, Inf, -1)
	m.AddConstraint([]Term{{x, -1}}, LE, 0, "noop")
	sol := solveOK(t, m)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveKnapsack(t *testing.T) {
	// max 10a+13b+7c s.t. 3a+4b+2c <= 6 (binary) -> a=1,c=1 (17) vs
	// b=1,c=1 (20): optimum 20.
	m := NewModel()
	a := m.AddBinary("a", -10)
	b := m.AddBinary("b", -13)
	c := m.AddBinary("c", -7)
	m.AddConstraint([]Term{{a, 3}, {b, 4}, {c, 2}}, LE, 6, "cap")
	sol := solveOK(t, m)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-20)) > 1e-6 {
		t.Errorf("objective = %g, want -20", sol.Objective)
	}
	if err := VerifySolution(m, sol.Values); err != nil {
		t.Error(err)
	}
}

// addInteger adds a general integer variable. The model builder adds
// only binaries and continuous variables, but branch & bound rounds any
// integer bound.
func addInteger(m *Model, name string, lo, hi, obj float64) int {
	m.vars = append(m.vars, variable{name: name, lo: lo, hi: hi, integer: true, obj: obj})
	return len(m.vars) - 1
}

func TestSolveIntegerVariables(t *testing.T) {
	// min x+y s.t. 2x+3y >= 12, x,y integer in [0,10]: candidates
	// (0,4)->4, (3,2)->5, (6,0)->6, (1,4)->5 ... optimum (0,4) = 4.
	m := NewModel()
	x := addInteger(m, "x", 0, 10, 1)
	y := addInteger(m, "y", 0, 10, 1)
	m.AddConstraint([]Term{{x, 2}, {y, 3}}, GE, 12, "need")
	sol := solveOK(t, m)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-4) > 1e-6 {
		t.Errorf("objective = %g, want 4", sol.Objective)
	}
}

func TestSolveImplicationChain(t *testing.T) {
	// The placement problem's shape: w <= u (implication), coverage,
	// capacity. u free otherwise; coverage forces w somewhere.
	m := NewModel()
	w1 := m.AddBinary("w1", 1)
	u1 := m.AddBinary("u1", 1)
	w2 := m.AddBinary("w2", 1)
	u2 := m.AddBinary("u2", 1)
	// w_i implies u_i.
	m.AddConstraint([]Term{{w1, 1}, {u1, -1}}, LE, 0, "dep1")
	m.AddConstraint([]Term{{w2, 1}, {u2, -1}}, LE, 0, "dep2")
	// Drop must be placed at switch 1 or 2.
	m.AddConstraint([]Term{{w1, 1}, {w2, 1}}, GE, 1, "cover")
	// Switch 1 has capacity 1 (cannot host both w1 and u1).
	m.AddConstraint([]Term{{w1, 1}, {u1, 1}}, LE, 1, "cap1")
	sol := solveOK(t, m)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// Must use switch 2: w2=1, u2=1, total 2.
	if math.Abs(sol.Objective-2) > 1e-6 {
		t.Errorf("objective = %g, want 2", sol.Objective)
	}
	if sol.Values[w2] != 1 || sol.Values[u2] != 1 {
		t.Errorf("values = %v", sol.Values)
	}
}

func TestSolveTimeLimit(t *testing.T) {
	// A model that takes some work; with an immediate deadline, expect
	// LimitReached or a feasible (not necessarily optimal) answer.
	rng := rand.New(rand.NewSource(1))
	m := NewModel()
	n := 30
	vars := make([]int, n)
	for i := range vars {
		vars[i] = m.AddBinary("x", float64(1+rng.Intn(5)))
	}
	for c := 0; c < 20; c++ {
		var terms []Term
		for _, v := range vars {
			if rng.Float64() < 0.3 {
				terms = append(terms, Term{v, 1})
			}
		}
		if len(terms) > 0 {
			m.AddConstraint(terms, GE, 1, "c")
		}
	}
	sol, err := Solve(m, Options{TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == Optimal {
		// Possible if the root LP is integral before the deadline hits;
		// accept but verify.
		if err := VerifySolution(m, sol.Values); err != nil {
			t.Error(err)
		}
	}
}

func TestSolveEmptyModel(t *testing.T) {
	m := NewModel()
	sol := solveOK(t, m)
	if sol.Status != Optimal || sol.Objective != 0 {
		t.Errorf("empty model: %v obj %g", sol.Status, sol.Objective)
	}
}

func TestSolveOneVariableRow(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", 5)
	y := m.AddBinary("y", 1)
	// x >= 1 forces x=1; then y unconstrained -> 0.
	m.AddConstraint([]Term{{x, 1}}, GE, 1, "fix")
	sol := solveOK(t, m)
	if sol.Status != Optimal || sol.Values[x] != 1 || sol.Values[y] != 0 {
		t.Errorf("sol = %+v", sol)
	}
}

func TestSolveValidateErrors(t *testing.T) {
	m := NewModel()
	v := m.AddVar("x", 2, 1, 0) // lo > hi
	_ = v
	if _, err := Solve(m, Options{}); err == nil {
		t.Error("expected validation error")
	}
}

// bruteForceBinary enumerates all assignments of binary variables and
// returns the optimal objective, or NaN when infeasible.
func bruteForceBinary(m *Model) float64 {
	n := len(m.vars)
	best := math.NaN()
	vals := make([]float64, n)
	for mask := 0; mask < 1<<uint(n); mask++ {
		for j := 0; j < n; j++ {
			vals[j] = float64(mask >> uint(j) & 1)
		}
		if VerifySolution(m, vals) != nil {
			continue
		}
		obj := 0.0
		for j := 0; j < n; j++ {
			obj += m.vars[j].obj * vals[j]
		}
		if math.IsNaN(best) || obj < best {
			best = obj
		}
	}
	return best
}

func TestSolveRandomBinaryVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 120; trial++ {
		m := NewModel()
		n := 3 + rng.Intn(8) // up to 10 binaries
		vars := make([]int, n)
		for i := range vars {
			vars[i] = m.AddBinary("x", float64(rng.Intn(7)-2))
		}
		rows := 1 + rng.Intn(7)
		for c := 0; c < rows; c++ {
			var terms []Term
			for _, v := range vars {
				if rng.Float64() < 0.5 {
					coef := float64(rng.Intn(5) - 2)
					if coef != 0 {
						terms = append(terms, Term{v, coef})
					}
				}
			}
			if len(terms) == 0 {
				continue
			}
			op := []Op{LE, GE, EQ}[rng.Intn(3)]
			rhs := float64(rng.Intn(7) - 3)
			m.AddConstraint(terms, op, rhs, "c")
		}
		want := bruteForceBinary(m)
		sol, err := Solve(m, Options{TimeLimit: 20 * time.Second})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.IsNaN(want) {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: status %v, brute force says infeasible", trial, sol.Status)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v, brute force says feasible with obj %g", trial, sol.Status, want)
		}
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: objective %g, brute force %g", trial, sol.Objective, want)
		}
		if err := VerifySolution(m, sol.Values); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSolveRandomCoveringVsBruteForce(t *testing.T) {
	// Placement-shaped instances: implications + covers + capacities.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		m := NewModel()
		n := 4 + rng.Intn(8)
		vars := make([]int, n)
		for i := range vars {
			vars[i] = m.AddBinary("v", 1)
		}
		for c := 0; c < 1+rng.Intn(4); c++ {
			a, b := vars[rng.Intn(n)], vars[rng.Intn(n)]
			if a != b {
				m.AddConstraint([]Term{{a, 1}, {b, -1}}, LE, 0, "imp")
			}
		}
		for c := 0; c < 1+rng.Intn(3); c++ {
			var terms []Term
			for _, v := range vars {
				if rng.Float64() < 0.4 {
					terms = append(terms, Term{v, 1})
				}
			}
			if len(terms) > 0 {
				m.AddConstraint(terms, GE, 1, "cover")
			}
		}
		var capTerms []Term
		for _, v := range vars {
			if rng.Float64() < 0.5 {
				capTerms = append(capTerms, Term{v, 1})
			}
		}
		if len(capTerms) > 0 {
			m.AddConstraint(capTerms, LE, float64(1+rng.Intn(3)), "cap")
		}
		want := bruteForceBinary(m)
		sol, err := Solve(m, Options{TimeLimit: 20 * time.Second})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.IsNaN(want) {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: status %v, want infeasible", trial, sol.Status)
			}
			continue
		}
		if sol.Status != Optimal || math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: got %v obj %g, want optimal %g", trial, sol.Status, sol.Objective, want)
		}
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

func TestCombineTerms(t *testing.T) {
	terms := combineTerms([]Term{{0, 1}, {1, 2}, {0, 3}, {2, 0}})
	sort.Slice(terms, func(a, b int) bool { return terms[a].Var < terms[b].Var })
	if len(terms) != 2 || terms[0] != (Term{0, 4}) || terms[1] != (Term{1, 2}) {
		t.Errorf("combined = %v", terms)
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Error("op strings wrong")
	}
	for _, s := range []Status{Optimal, Infeasible, Feasible, LimitReached, Unbounded} {
		if s.String() == "" {
			t.Error("empty status string")
		}
	}
}
