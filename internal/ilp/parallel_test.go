package ilp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// parallelFixture builds one placement-shaped MILP (implications +
// covers + capacities, the structure of Eqs. 1–5) from a seed.
func parallelFixture(seed int64, n int) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel()
	vars := make([]int, n)
	for i := range vars {
		vars[i] = m.AddBinary("v", float64(1+rng.Intn(3)))
	}
	for c := 0; c < n/2; c++ {
		a, b := vars[rng.Intn(n)], vars[rng.Intn(n)]
		if a != b {
			m.AddConstraint([]Term{{a, 1}, {b, -1}}, LE, 0, "imp")
		}
	}
	for c := 0; c < n/3+1; c++ {
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
		capTerms = append(capTerms, Term{v, 1})
	}
	// A tight capacity keeps branch & bound honest (many bound-tied
	// placements near the optimum).
	m.AddConstraint(capTerms, LE, float64(n/2+1), "cap")
	return m
}

// TestSolveDeterministicAcrossWorkers asserts the pool's guarantee:
// status, objective, and the solution vector are byte-identical for
// pool sizes 1, 2 and 8. Exact (not tolerance) comparison is intentional —
// the parallel search is deterministic by construction, so any drift is
// a bug, not noise.
func TestSolveDeterministicAcrossWorkers(t *testing.T) {
	fixtures := []struct {
		name string
		m    func() *Model
	}{
		{"cover12", func() *Model { return parallelFixture(3, 12) }},
		{"cover16", func() *Model { return parallelFixture(7, 16) }},
		{"cover20", func() *Model { return parallelFixture(11, 20) }},
		{"infeasible", func() *Model {
			m := NewModel()
			a := m.AddBinary("a", 1)
			b := m.AddBinary("b", 1)
			m.AddConstraint([]Term{{a, 1}, {b, 1}}, GE, 2, "both")
			m.AddConstraint([]Term{{a, 1}, {b, 1}}, LE, 1, "atmost1")
			return m
		}},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			type outcome struct {
				status Status
				obj    float64
				values []float64
			}
			var base *outcome
			for _, w := range []int{1, 2, 8} {
				sol, err := solve(fx.m(), Options{TimeLimit: 60 * time.Second}, w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if sol.Stats.Workers != w {
					t.Errorf("workers=%d: Stats.Workers = %d", w, sol.Stats.Workers)
				}
				got := &outcome{status: sol.Status, obj: sol.Objective, values: sol.Values}
				if base == nil {
					base = got
					continue
				}
				if got.status != base.status {
					t.Fatalf("workers=%d: status %v, workers=1 got %v", w, got.status, base.status)
				}
				//lint:exactfloat determinism contract: parallel solves must agree bit-for-bit, not within tolerance
				if got.obj != base.obj {
					t.Fatalf("workers=%d: objective %v, workers=1 got %v", w, got.obj, base.obj)
				}
				if !reflect.DeepEqual(got.values, base.values) {
					t.Fatalf("workers=%d: solution vector differs from workers=1:\n  %v\nvs\n  %v",
						w, got.values, base.values)
				}
			}
		})
	}
}

// TestSolveWorkersMatchSequentialSearch asserts that the node and
// iteration counts — not just the answer — are identical across pool
// sizes: the parallel search must expand the same tree. The fixture's
// root gap is above 0, so the root dive cannot close it and a tree
// grows.
func TestSolveWorkersMatchSequentialSearch(t *testing.T) {
	m1 := parallelFixture(70, 18)
	m8 := parallelFixture(70, 18)
	s1, err := solve(m1, Options{TimeLimit: 60 * time.Second}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := solve(m8, Options{TimeLimit: 60 * time.Second}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Stats.BnBNodes != s8.Stats.BnBNodes || s1.Stats.SimplexIters != s8.Stats.SimplexIters {
		t.Errorf("search effort differs: workers=1 (%d nodes, %d iters) vs workers=8 (%d nodes, %d iters)",
			s1.Stats.BnBNodes, s1.Stats.SimplexIters, s8.Stats.BnBNodes, s8.Stats.SimplexIters)
	}
}

// TestSolveParallelStress solves a tight instance with many workers; its
// real value is under `go test -race`, which checks the batch fan-out
// for data races. The seeds are ones the root dive cannot close, so
// each grows a tree. -short keeps it to one instance.
func TestSolveParallelStress(t *testing.T) {
	seeds := []int64{28, 44, 51, 109, 131, 156}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for trial, seed := range seeds {
		m := parallelFixture(seed, 22)
		sol, err := solve(m, Options{TimeLimit: 60 * time.Second}, 8)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal && sol.Status != Infeasible {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		if sol.Status == Optimal {
			if err := VerifySolution(m, sol.Values); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// TestColdNodeIgnoresPricingCursor: a node LP solved without a parent
// snapshot (solveNode's cold path) is a pure function of its work item,
// even on a solver whose previous LP left its partial-pricing cursor
// mid-scan and its window widened. Each node is solved on such a
// solver and on a fresh clone, which starts both at zero; the two
// results must agree bit for bit. The model has more columns than the
// minimum pricing window, so a scan that starts at a stale cursor can
// pick a different entering column.
func TestColdNodeIgnoresPricingCursor(t *testing.T) {
	m := coveringModel(800, 150, 20, 1)
	s := newLPSolver(m)
	s.initBasis()
	if st, err := s.solveLP(); err != nil || st != lpOptimal {
		t.Fatalf("root LP: status %v, err %v", st, err)
	}
	x := s.primalValues()
	frac := -1
	for j, v := range x {
		if math.Abs(v-math.Round(v)) > 1e-6 {
			frac = j
			break
		}
	}
	if frac < 0 {
		t.Fatal("root LP is integral; the fixture branches on nothing")
	}
	state := append([]int8(nil), s.state[:s.nBase]...)
	for _, up := range []bool{false, true} {
		it := &workItem{
			lo:        append([]float64(nil), s.lo[:s.nOrig]...),
			hi:        append([]float64(nil), s.hi[:s.nOrig]...),
			state:     state,
			branchVar: -1,
		}
		if up {
			it.lo[frac] = 1
		} else {
			it.hi[frac] = 0
		}
		// The earlier LP is the root for the first node and the first
		// node for the second.
		if s.priceCursor <= 0 || s.priceCursor >= s.n || s.priceWindow == 0 {
			t.Fatalf("up=%v: the earlier LP left cursor %d, window %d of %d columns; the fixture no longer leaves a mid-scan cursor",
				up, s.priceCursor, s.priceWindow, s.n)
		}
		fresh := s.clone()
		got := solveNode(s, it)
		want := solveNode(fresh, it)
		if got.err != nil || want.err != nil {
			t.Fatalf("up=%v: errors %v, %v", up, got.err, want.err)
		}
		if got.st != want.st || math.Float64bits(got.raw) != math.Float64bits(want.raw) ||
			!reflect.DeepEqual(got.x, want.x) || !reflect.DeepEqual(got.state, want.state) || got.iters != want.iters {
			t.Fatalf("up=%v: node LP depends on the previous LP's pricing cursor: status %v/%v, objective %v/%v, %d/%d iterations",
				up, got.st, want.st, got.raw, want.raw, got.iters, want.iters)
		}
	}
}
