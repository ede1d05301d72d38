package ilp

import (
	"errors"
	"math"
	"time"
)

// Warm-started child reoptimization. A solved branch & bound node's
// basis is optimal — hence dual feasible — for both children's LPs,
// which differ from the parent only by one tightened bound on the
// branching variable (basic, since it was fractional). The child
// therefore starts with exactly one primal infeasibility, and the
// bounded-variable dual simplex restores feasibility in a handful of
// pivots while reusing the parent's LU factorization and eta file,
// instead of rebuilding a slack basis and refactorizing from scratch.
//
// Determinism: the snapshot travels inside the work item, so a node's
// LP result remains a pure function of the item regardless of which
// worker solves it. Every failure mode (iteration budget, numerics,
// pivot disagreement) falls back to the cold resolveAfterBoundChange
// path, which is itself deterministic — so the warm/cold decision is a
// pure function of the item too.

// dualIterCap bounds the warm-start dual simplex before falling back to
// the cold path. Deliberately tight: a child differs from its parent by
// one bound, so a healthy reoptimization takes a handful of pivots —
// a run that hasn't converged by now is cycling on degeneracy, and
// every extra iteration here is pure waste on top of the cold solve
// that follows.
const dualIterCap = 150

// basisSnapshot captures a solved node's factored basis for reuse by
// its children. The luFactor is immutable and shared (several
// snapshots between two refactorizations reference the same factor);
// the eta file, basis list, and basic values are copied so later solver
// mutation cannot leak in. Snapshots are read-only: concurrent workers
// installing the same snapshot only copy out of it.
type basisSnapshot struct {
	factor *luFactor
	etas   []eta
	basic  []int
	xB     []float64
}

// captureSnapshot snapshots the current basis, or returns nil when the
// basis is not reusable (an artificial column is still basic, so the
// children could not interpret the basis in the shared column space).
func (s *lpSolver) captureSnapshot() *basisSnapshot {
	for _, b := range s.basic {
		if b >= s.nBase {
			return nil
		}
	}
	return &basisSnapshot{
		factor: s.factor,
		etas:   append([]eta(nil), s.etas...),
		basic:  append([]int(nil), s.basic...),
		xB:     append([]float64(nil), s.xB...),
	}
}

// installSnapshot loads a work item's bounds, states, and parent basis
// into the solver, priming the dual simplex. It reports false when the
// warm start is not applicable (shape mismatch, or the branching
// variable was not basic in the parent, so the one-bound-delta argument
// does not hold) and the caller must use the cold path.
func (s *lpSolver) installSnapshot(it *workItem) bool {
	sn := it.snap
	if sn == nil || len(sn.basic) != s.m || len(it.state) != s.nBase {
		return false
	}
	if it.branchVar >= 0 && it.state[it.branchVar] != stBasic {
		return false
	}
	s.dropArtificials()
	copy(s.lo[:s.nOrig], it.lo)
	copy(s.hi[:s.nOrig], it.hi)
	copy(s.state, it.state)
	copy(s.basic, sn.basic)
	copy(s.xB, sn.xB)
	s.etas = append(s.etas[:0], sn.etas...)
	s.factor = sn.factor
	s.priceCursor, s.priceWindow = 0, 0
	s.phase2Costs()
	return true
}

// dualSimplex runs the bounded-variable dual simplex from the installed
// (dual-feasible, primal-infeasible) basis until primal feasibility,
// proven infeasibility, the deadline, or the iteration budget
// (lpDualStall — caller falls back cold).
func (s *lpSolver) dualSimplex(maxIter int) (lpStatus, error) {
	if s.factor == nil {
		if err := s.refactorize(); err != nil {
			return 0, err
		}
	}
	rho := s.rho
	y := s.selY
	w := s.selW
	// Duals are computed once and then updated incrementally per pivot
	// (y += theta*rho), the textbook dual-simplex update: one btran per
	// iteration instead of two. They are recomputed exactly whenever
	// pushEta refactorizes, bounding float drift to one eta file.
	s.duals(y)
	for iter := 0; ; iter++ {
		if iter >= maxIter {
			return lpDualStall, nil
		}
		s.iters++
		if s.iters%checkEveryIt == 0 && !s.deadline.IsZero() && time.Now().After(s.deadline) {
			return lpTimeLimit, nil
		}
		// Leaving row: the most infeasible basic variable (deterministic:
		// strict improvement scan, lowest row on exact ties).
		r := -1
		worst := feasTol
		var target float64
		leaveAt := int8(0)
		for i := 0; i < s.m; i++ {
			bi := s.basic[i]
			if d := s.lo[bi] - s.xB[i]; d > worst {
				worst, r, target, leaveAt = d, i, s.lo[bi], stLower
			}
			if d := s.xB[i] - s.hi[bi]; d > worst {
				worst, r, target, leaveAt = d, i, s.hi[bi], stUpper
			}
		}
		if r < 0 {
			return lpOptimal, nil // primal feasible; caller polishes
		}
		// rho = B^{-T} e_r gives the pivot row alphas for the dual ratio
		// test against the incrementally-maintained reduced costs.
		for i := range rho {
			rho[i] = 0
		}
		rho[r] = 1
		s.btranApply(rho)
		needUp := leaveAt == stLower // xB[r] must rise to its lower bound
		best := -1
		bestRatio := math.Inf(1)
		var bestD, bestAlpha float64
		for j := 0; j < s.n; j++ {
			st := s.state[j]
			//lint:exactfloat fixed-variable test on stored bounds; bounds are assigned, never computed
			if st == stBasic || s.lo[j] == s.hi[j] {
				continue
			}
			alpha := s.colDot(j, rho)
			if math.Abs(alpha) < pivotTol {
				continue
			}
			// Entering j leaves its bound by delta (>= 0 from lower,
			// <= 0 from upper); xB[r] changes by -delta*alpha, so the
			// sign of alpha decides eligibility.
			if needUp {
				if (st == stLower && alpha >= 0) || (st == stUpper && alpha <= 0) {
					continue
				}
			} else {
				if (st == stLower && alpha <= 0) || (st == stUpper && alpha >= 0) {
					continue
				}
			}
			// Dual ratio: |d_j| / |alpha_j| bounds how far the duals can
			// move before reduced cost j changes sign.
			d := s.cost[j] - s.colDot(j, y)
			ratio := math.Abs(d) / math.Abs(alpha)
			if ratio < bestRatio {
				bestRatio, best, bestD, bestAlpha = ratio, j, d, alpha
			}
		}
		if best < 0 {
			// Dual unbounded: the child LP is infeasible. Sound prune —
			// the row is violated and no nonbasic column can fix it.
			return lpInfeasible, nil
		}
		q := best
		s.ftran(q, w)
		alphaR := w[r]
		if math.Abs(alphaR) < pivotTol {
			// The eta-updated column disagrees with the btran row; the
			// factorization has drifted. Fall back rather than pivot.
			return lpDualStall, nil
		}
		delta := (s.xB[r] - target) / alphaR
		for i := 0; i < s.m; i++ {
			//lint:exactfloat w is scattered dense; rows never touched by ftran hold exact zeros, and skipping only those is a sparsity fast path
			if w[i] != 0 {
				s.xB[i] -= float64(delta * w[i])
			}
		}
		enterVal := s.nonbasicValue(q) + delta
		lv := s.basic[r]
		s.state[lv] = leaveAt
		s.basic[r] = q
		s.state[q] = stBasic
		s.xB[r] = enterVal
		hadEtas := len(s.etas)
		if err := s.pushEta(r, w); err != nil {
			return 0, err
		}
		if len(s.etas) <= hadEtas {
			// pushEta refactorized: recompute the duals exactly.
			s.duals(y)
			continue
		}
		// Incremental dual update: shift y along rho until the entering
		// reduced cost hits zero.
		theta := bestD / bestAlpha
		for i := 0; i < s.m; i++ {
			//lint:exactfloat rho is scattered dense; rows never touched by btran hold exact zeros, and skipping only those is a sparsity fast path
			if rho[i] != 0 {
				y[i] += float64(theta * rho[i])
			}
		}
	}
}

// warmSolveNode runs the warm-start path for a work item carrying a
// parent snapshot: install, dual simplex, then a primal phase-2 polish
// that certifies optimality with the same criterion as the cold path.
// ok=false means the caller must run the cold path (deterministically:
// the decision depends only on the item).
func warmSolveNode(s *lpSolver, it *workItem) (st lpStatus, ok bool, err error) {
	if !s.installSnapshot(it) {
		return 0, false, nil
	}
	st, err = s.dualSimplex(dualIterCap)
	if err != nil {
		if errors.Is(err, errLPNumerics) || errors.Is(err, errSingular) {
			return 0, false, nil
		}
		return st, true, err
	}
	if st == lpDualStall {
		return 0, false, nil
	}
	if st != lpOptimal {
		return st, true, nil // lpInfeasible or lpTimeLimit: final
	}
	// Primal polish: usually zero iterations, but it re-prices every
	// column, so the returned optimum satisfies the exact optimality
	// criterion of the cold path.
	st, err = s.solve()
	if err != nil {
		if errors.Is(err, errLPNumerics) || errors.Is(err, errSingular) {
			return 0, false, nil
		}
		return st, true, err
	}
	return st, true, nil
}
