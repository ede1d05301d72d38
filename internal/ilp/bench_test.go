package ilp

import (
	"math/rand"
	"testing"
	"time"
)

// coveringModel builds a placement-shaped MILP: implications + covers +
// capacities over nVars binaries.
func coveringModel(nVars, nCovers, nCaps int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel()
	vars := make([]int, nVars)
	for i := range vars {
		vars[i] = m.AddBinary("v", 1)
	}
	for i := 0; i < nVars/4; i++ {
		a, b := vars[rng.Intn(nVars)], vars[rng.Intn(nVars)]
		if a != b {
			m.AddConstraint([]Term{{a, 1}, {b, -1}}, LE, 0, "imp")
		}
	}
	for c := 0; c < nCovers; c++ {
		var terms []Term
		for k := 0; k < 4+rng.Intn(5); k++ {
			terms = append(terms, Term{vars[rng.Intn(nVars)], 1})
		}
		m.AddConstraint(combineTerms(terms), GE, 1, "cover")
	}
	for c := 0; c < nCaps; c++ {
		var terms []Term
		for _, v := range vars {
			if rng.Float64() < 0.2 {
				terms = append(terms, Term{v, 1})
			}
		}
		if len(terms) > 0 {
			m.AddConstraint(terms, LE, float64(2+len(terms)/3), "cap")
		}
	}
	return m
}

func BenchmarkLUFactorizeStructured(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := 500
	cols := make([][]entry, m)
	for j := range cols {
		if rng.Float64() < 0.6 {
			cols[j] = []entry{{row: j, val: 1}}
			continue
		}
		cols[j] = []entry{{row: j, val: 2 + rng.Float64()}}
		for k := 0; k < 2+rng.Intn(3); k++ {
			r := rng.Intn(m)
			if r != j {
				cols[j] = append(cols[j], entry{row: r, val: rng.NormFloat64()})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := luFactorize(m, cols); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLPRelaxation(b *testing.B) {
	m := coveringModel(300, 80, 20, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newLPSolver(m)
		s.initBasis()
		if _, err := s.solveLP(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMILPSolve(b *testing.B) {
	m := coveringModel(120, 40, 10, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := Solve(m, Options{TimeLimit: 60 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != Optimal && sol.Status != Infeasible {
			b.Fatalf("status %v", sol.Status)
		}
	}
}
