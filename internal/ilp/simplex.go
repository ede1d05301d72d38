package ilp

import (
	"errors"
	"math"
	"time"

	"rulefit/internal/invariant"
)

// Bounded-variable revised simplex. The LP is held in computational
// standard form A x = b where x covers structural variables, one slack
// per row, and phase-1 artificial variables. The basis is maintained as a
// sparse LU factorization plus a product-form eta file, refactored
// periodically.
//
// Memory layout is struct-of-arrays: the structural and slack columns
// live in one immutable cscMatrix shared by every branch & bound clone,
// artificials are singleton (row, val) tails appended per solver, and
// all per-iteration vectors are preallocated scratch — the simplex inner
// loop performs no heap allocation.

// Variable states.
const (
	stBasic int8 = iota + 1
	stLower
	stUpper
)

// Solver tolerances and limits.
const (
	feasTol      = 1e-7
	optTol       = 1e-7
	pivotTol     = 1e-9
	zeroTol      = 1e-11
	maxEtas      = 64
	degenLimit   = 400 // degenerate iterations before switching to Bland
	checkEveryIt = 256 // deadline poll frequency
)

// lpStatus is the outcome of an LP solve.
type lpStatus int

const (
	lpOptimal lpStatus = iota + 1
	lpInfeasible
	lpUnbounded
	lpTimeLimit
	// lpDualStall: the warm-start dual simplex exceeded its iteration
	// budget; the caller must fall back to the cold solve path.
	lpDualStall
)

// errLPNumerics reports an unrecoverable numerical failure.
var errLPNumerics = errors.New("ilp: simplex numerical failure")

// eta is one product-form basis update: the basis column at position p
// was replaced; w = B_prev^{-1} a_entering.
type eta struct {
	p  int
	w  []entry // nonzeros of w by basis position, excluding p
	wp float64 // w[p], the pivot element
}

// lpSolver holds the standard-form LP and simplex state.
type lpSolver struct {
	m, n  int // rows; total columns (structural+slack+artificial)
	nOrig int // structural variable count
	nBase int // structural + slack columns; artificials sit above
	mat   *cscMatrix
	lo    []float64
	hi    []float64
	obj   []float64 // phase-2 objective
	rhs   []float64

	// Artificial columns are singletons appended above nBase: column
	// nBase+k has one entry (artRow[k], artVal[k]).
	artRow []int32
	artVal []float64

	basic  []int // var index basic at each row position
	state  []int8
	xB     []float64 // basic variable values by position
	factor *luFactor
	etas   []eta

	cost    []float64 // active objective (phase 1 or 2)
	inPhase int

	iters     int
	refactors int // LU refactorizations performed
	deadline  time.Time

	// Scratch, allocated once per solver (arena-style) and reused by
	// every node LP the solver runs.
	bufA  []float64 // refactorize right-hand-side accumulator
	luX   []float64 // inner scratch for ftranInto/btranInto
	selY  []float64 // simplex loop duals
	selW  []float64 // simplex loop entering column
	rho   []float64 // dual simplex pivot-row scratch
	luWS  luWorkspace
	bPtr  []int32 // basis gather scratch for refactorize
	bRows []int32
	bVals []float64

	// priceCursor is the rolling start position for partial pricing;
	// priceWindow widens on degenerate pivots (zigzag guard) and resets
	// after real progress. fullPricing forces a complete scan always.
	priceCursor int
	priceWindow int
	fullPricing bool
}

// newLPSolver builds standard form from a model's continuous relaxation,
// using the bounds arrays provided (which may be tightened copies of the
// model's own bounds).
func newLPSolver(m *Model, lo, hi []float64) *lpSolver {
	nStruct := len(m.vars)
	rows := m.cons
	nRows := len(rows)
	base := nStruct + nRows
	s := &lpSolver{
		m:     nRows,
		nOrig: nStruct,
		nBase: base,
		n:     base,
		rhs:   make([]float64, nRows),
		mat:   buildStandardForm(nStruct, rows),
	}
	// One slab for the three bounds/objective arrays (lo, hi, obj), each
	// with headroom for per-row artificials.
	seg := base + nRows
	slab := make([]float64, 3*seg)
	s.lo = slab[0*seg : 0*seg+base : 1*seg]
	s.hi = slab[1*seg : 1*seg+base : 2*seg]
	s.obj = slab[2*seg : 2*seg+base : 3*seg]
	for j := 0; j < nStruct; j++ {
		s.lo[j], s.hi[j] = lo[j], hi[j]
		s.obj[j] = m.vars[j].obj
	}
	for i := range rows {
		s.rhs[i] = rows[i].RHS
		sl := nStruct + i
		switch rows[i].Op {
		case LE:
			s.lo[sl], s.hi[sl] = 0, Inf
		case GE:
			s.lo[sl], s.hi[sl] = math.Inf(-1), 0
		case EQ:
			s.lo[sl], s.hi[sl] = 0, 0
		}
	}
	s.initScratch()
	return s
}

// initScratch allocates the per-solver reusable buffers.
func (s *lpSolver) initScratch() {
	s.bufA = make([]float64, s.m)
	s.luX = make([]float64, s.m)
	s.selY = make([]float64, s.m)
	s.selW = make([]float64, s.m)
	s.rho = make([]float64, s.m)
	s.bPtr = make([]int32, s.m+1)
	s.artRow = make([]int32, 0, s.m)
	s.artVal = make([]float64, 0, s.m)
}

// clone returns an independent solver over the same LP for a branch &
// bound worker. The immutable problem data (rhs and the CSC matrix) is
// shared; everything a node solve mutates — bound arrays, states, basis,
// scratch — gets fresh backing arrays truncated to the artificial-free
// base, so concurrent clones never touch common memory. A clone's basis
// list may reference dropped artificial columns, so it must be driven
// through resolveAfterBoundChange (which rebuilds the basis) or a
// snapshot install before any other use.
func (s *lpSolver) clone() *lpSolver {
	base := s.nBase
	c := &lpSolver{
		m:           s.m,
		n:           base,
		nOrig:       s.nOrig,
		nBase:       base,
		mat:         s.mat,
		rhs:         s.rhs,
		deadline:    s.deadline,
		fullPricing: s.fullPricing,
	}
	seg := base + s.m
	slab := make([]float64, 3*seg)
	c.lo = slab[0*seg : 0*seg+base : 1*seg]
	copy(c.lo, s.lo[:base])
	c.hi = slab[1*seg : 1*seg+base : 2*seg]
	copy(c.hi, s.hi[:base])
	c.obj = slab[2*seg : 2*seg+base : 3*seg]
	copy(c.obj, s.obj[:base])
	c.state = make([]int8, base, base+s.m)
	copy(c.state, s.state[:base])
	c.basic = make([]int, s.m)
	copy(c.basic, s.basic)
	c.xB = make([]float64, s.m)
	copy(c.xB, s.xB)
	c.initScratch()
	return c
}

// colDot returns y · a_j for column j of the standard-form matrix.
func (s *lpSolver) colDot(j int, y []float64) float64 {
	if j < s.nBase {
		d := 0.0
		for p := s.mat.ptr[j]; p < s.mat.ptr[j+1]; p++ {
			d += float64(y[s.mat.rows[p]] * s.mat.vals[p])
		}
		return d
	}
	k := j - s.nBase
	return y[s.artRow[k]] * s.artVal[k]
}

// scatterCol adds scale * a_j into out (dense by row).
func (s *lpSolver) scatterCol(j int, scale float64, out []float64) {
	if j < s.nBase {
		for p := s.mat.ptr[j]; p < s.mat.ptr[j+1]; p++ {
			out[s.mat.rows[p]] += float64(scale * s.mat.vals[p])
		}
		return
	}
	k := j - s.nBase
	out[s.artRow[k]] += float64(scale * s.artVal[k])
}

// initBasis sets every structural variable nonbasic at its nearest finite
// bound, installs slacks as the basis where feasible, and adds artificial
// variables for rows whose slack cannot absorb the residual.
func (s *lpSolver) initBasis() {
	s.state = make([]int8, s.n, s.n+s.m)
	s.basic = make([]int, s.m)
	s.xB = make([]float64, s.m)
	for j := 0; j < s.nOrig; j++ {
		s.state[j] = stLower // rebuildFromStates snaps infinite bounds
	}
	s.rebuildFromStates()
}

// nonbasicValue returns the current value of a nonbasic variable.
func (s *lpSolver) nonbasicValue(j int) float64 {
	switch s.state[j] {
	case stLower:
		if math.IsInf(s.lo[j], -1) {
			return 0
		}
		return s.lo[j]
	case stUpper:
		if math.IsInf(s.hi[j], 1) {
			return 0
		}
		return s.hi[j]
	default:
		panic("ilp: nonbasicValue of basic variable")
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// refactorize rebuilds the LU factorization of the current basis and
// recomputes basic values from scratch, flushing accumulated drift.
func (s *lpSolver) refactorize() error {
	s.refactors++
	// Gather the basis columns into the reusable CSC scratch slabs.
	s.bRows = s.bRows[:0]
	s.bVals = s.bVals[:0]
	s.bPtr[0] = 0
	for i, v := range s.basic {
		if v < s.nBase {
			for p := s.mat.ptr[v]; p < s.mat.ptr[v+1]; p++ {
				s.bRows = append(s.bRows, s.mat.rows[p])
				s.bVals = append(s.bVals, s.mat.vals[p])
			}
		} else {
			k := v - s.nBase
			s.bRows = append(s.bRows, s.artRow[k])
			s.bVals = append(s.bVals, s.artVal[k])
		}
		s.bPtr[i+1] = int32(len(s.bRows))
	}
	f, err := luFactorizeCSC(s.m, s.bPtr, s.bRows, s.bVals, &s.luWS)
	if err != nil {
		return err
	}
	s.factor = f
	s.etas = s.etas[:0]
	// xB = B^{-1} (b - N x_N)
	r := s.bufA
	copy(r, s.rhs)
	for j := 0; j < s.n; j++ {
		if s.state[j] == stBasic {
			continue
		}
		xj := s.nonbasicValue(j)
		//lint:exactfloat nonbasic values are stored bounds (or literal 0), never computed; skipping only exact zeros is a pure sparsity fast path
		if xj == 0 {
			continue
		}
		s.scatterCol(j, -xj, r)
	}
	var rhsCopy []float64
	if invariant.Enabled {
		rhsCopy = append([]float64(nil), r[:s.m]...)
	}
	s.factor.ftranInto(r, s.luX)
	copy(s.xB, r)
	if invariant.Enabled {
		// Residual check: B xB must reproduce the reduced right-hand
		// side the solve started from. Unlike a roundtrip through
		// B^{-1}, the residual is not amplified by conditioning, so a
		// violation means the factorization or the basis list is stale.
		res := make([]float64, s.m)
		copy(res, rhsCopy)
		scale := 1.0
		for _, v := range rhsCopy {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		for i, v := range s.basic {
			s.scatterCol(v, -s.xB[i], res)
		}
		for i, v := range res {
			invariant.Assert(math.Abs(v) <= 1e-6*scale,
				"refactorize: basis residual %g at row %d exceeds %g (m=%d)", v, i, 1e-6*scale, s.m)
		}
	}
	return nil
}

// ftran computes w = B^{-1} a_j into out (dense by basis position).
func (s *lpSolver) ftran(j int, out []float64) {
	for i := range out {
		out[i] = 0
	}
	s.scatterCol(j, 1, out)
	s.factor.ftranInto(out, s.luX)
	s.applyEtas(out)
}

// applyEtas pushes a B^{-1}-solve through the product-form eta file.
func (s *lpSolver) applyEtas(out []float64) {
	for _, et := range s.etas {
		xp := out[et.p] / et.wp
		out[et.p] = xp
		// xp is computed, so compare against the same drop tolerance the
		// eta file itself is truncated with, not exact zero.
		if math.Abs(xp) < zeroTol {
			continue
		}
		for _, e := range et.w {
			out[e.row] -= float64(e.val * xp)
		}
	}
}

// duals computes y = B^{-T} c_B into out (dense by row).
func (s *lpSolver) duals(out []float64) {
	for i := range out {
		out[i] = 0
	}
	for i, v := range s.basic {
		out[i] = s.cost[v]
	}
	s.btranApply(out)
}

// btranApply solves B^T y = v in place for a vector given by basis
// position, reversing the eta file and then the factored basis.
func (s *lpSolver) btranApply(out []float64) {
	for k := len(s.etas) - 1; k >= 0; k-- {
		et := s.etas[k]
		acc := out[et.p]
		for _, e := range et.w {
			acc -= float64(out[e.row] * e.val)
		}
		out[et.p] = acc / et.wp
	}
	s.factor.btranInto(out, s.luX)
}

// ensureCost sizes the active-cost array (reusing its backing) and
// zeroes it.
func (s *lpSolver) ensureCost() {
	if cap(s.cost) < s.n {
		s.cost = make([]float64, s.n, s.n+s.m)
	}
	s.cost = s.cost[:s.n]
	for i := range s.cost {
		s.cost[i] = 0
	}
}

// phase1Costs installs the infeasibility objective (artificials cost 1).
func (s *lpSolver) phase1Costs() {
	s.ensureCost()
	for j := s.nBase; j < s.n; j++ {
		s.cost[j] = 1
	}
	s.inPhase = 1
}

// phase2Costs installs the true objective and freezes artificials at 0.
func (s *lpSolver) phase2Costs() {
	s.ensureCost()
	copy(s.cost, s.obj)
	for j := s.nBase; j < s.n; j++ {
		s.lo[j], s.hi[j] = 0, 0
	}
	s.inPhase = 2
}

// objective returns the current active-cost objective value.
func (s *lpSolver) objective() float64 {
	v := 0.0
	for i, b := range s.basic {
		v += float64(s.cost[b] * s.xB[i])
	}
	for j := 0; j < s.n; j++ {
		//lint:exactfloat cost entries are stored objective coefficients (or 0/1 phase costs), never computed
		if s.state[j] != stBasic && s.cost[j] != 0 {
			v += float64(s.cost[j] * s.nonbasicValue(j))
		}
	}
	return v
}

// price selects an entering variable, or -1 when provably optimal.
// Partial pricing scans a rolling window past the first candidate so a
// typical iteration touches only a fraction of the columns; a full wrap
// with no candidate proves optimality. Bland's rule (first eligible by
// index, full scan) is used when bland is true to break cycles.
func (s *lpSolver) price(y []float64, bland bool) int {
	window := s.priceWindow
	if window < 1024 {
		window = 1024
	}
	if s.fullPricing {
		window = s.n
	}
	score := func(j int) float64 {
		st := s.state[j]
		//lint:exactfloat fixed-variable test on stored bounds; bounds are assigned, never computed
		if st == stBasic || s.lo[j] == s.hi[j] {
			return 0
		}
		d := s.cost[j] - s.colDot(j, y)
		if st == stLower {
			return -d // want d < 0
		}
		return d // at upper bound: want d > 0
	}
	if bland {
		for j := 0; j < s.n; j++ {
			if score(j) > optTol {
				return j
			}
		}
		return -1
	}
	best, bestScore := -1, optTol
	scanned, sinceFound := 0, 0
	j := s.priceCursor
	for scanned < s.n {
		if j >= s.n {
			j = 0
		}
		if sc := score(j); sc > bestScore {
			best, bestScore = j, sc
			sinceFound = 0
		}
		j++
		scanned++
		if best >= 0 {
			sinceFound++
			if sinceFound >= window {
				break
			}
		}
	}
	s.priceCursor = j
	return best
}

// solve runs the simplex to completion on the active costs.
func (s *lpSolver) solve() (lpStatus, error) {
	if s.factor == nil {
		if err := s.refactorize(); err != nil {
			return 0, err
		}
	}
	y := s.selY
	w := s.selW
	degen := 0
	for {
		s.iters++
		if s.iters%checkEveryIt == 0 && !s.deadline.IsZero() && time.Now().After(s.deadline) {
			return lpTimeLimit, nil
		}
		s.duals(y)
		q := s.price(y, degen > degenLimit)
		if q < 0 {
			return lpOptimal, nil
		}
		dir := 1.0
		if s.state[q] == stUpper {
			dir = -1
		}
		s.ftran(q, w)

		// Ratio test: entering moves by t >= 0 in direction dir; basic
		// values change by -dir*t*w.
		tMax := Inf
		leave := -1
		leaveAt := int8(0)
		if !math.IsInf(s.lo[q], -1) && !math.IsInf(s.hi[q], 1) {
			tMax = s.hi[q] - s.lo[q] // bound flip distance
		}
		for i := 0; i < s.m; i++ {
			wi := w[i]
			if math.Abs(wi) < pivotTol {
				continue
			}
			b := s.basic[i]
			delta := -dir * wi
			var t float64
			var at int8
			if delta < 0 {
				if math.IsInf(s.lo[b], -1) {
					continue
				}
				t = (s.xB[i] - s.lo[b]) / -delta
				at = stLower
			} else {
				if math.IsInf(s.hi[b], 1) {
					continue
				}
				t = (s.hi[b] - s.xB[i]) / delta
				at = stUpper
			}
			if t < -feasTol {
				t = 0
			}
			if t < tMax-zeroTol {
				tMax, leave, leaveAt = t, i, at
			}
		}
		if math.IsInf(tMax, 1) {
			if s.inPhase == 1 {
				return 0, errLPNumerics // phase-1 objective is bounded below
			}
			return lpUnbounded, nil
		}
		if tMax < 0 {
			tMax = 0
		}
		if tMax < zeroTol {
			degen++
			// Widen partial pricing: degenerate steps often mean the
			// window is hiding the strong candidates.
			if s.priceWindow < 1024 {
				s.priceWindow = 1024
			}
			if s.priceWindow < s.n {
				s.priceWindow *= 2
			}
		} else {
			degen = 0
			s.priceWindow = 0
		}
		// Apply the step.
		if tMax > 0 {
			for i := 0; i < s.m; i++ {
				//lint:exactfloat w is scattered dense; rows never touched by ftran hold exact zeros, and skipping only those is a sparsity fast path
				if w[i] != 0 {
					s.xB[i] -= float64(dir * tMax * w[i])
				}
			}
		}
		if leave < 0 {
			// Bound flip: entering variable crosses to its other bound.
			if s.state[q] == stLower {
				s.state[q] = stUpper
			} else {
				s.state[q] = stLower
			}
			continue
		}
		// Basis change: q enters at position leave.
		lv := s.basic[leave]
		s.state[lv] = leaveAt
		enterVal := s.nonbasicValue(q) + float64(dir*tMax)
		s.basic[leave] = q
		s.state[q] = stBasic
		s.xB[leave] = enterVal
		if err := s.pushEta(leave, w); err != nil {
			return 0, err
		}
	}
}

// pushEta records the basis change at position leave with entering
// column w (as of the pre-change basis), refactorizing when the eta
// file is full.
func (s *lpSolver) pushEta(leave int, w []float64) error {
	wp := w[leave]
	if math.Abs(wp) < pivotTol {
		return errLPNumerics
	}
	var wn []entry
	for i := 0; i < s.m; i++ {
		if i != leave && math.Abs(w[i]) > zeroTol {
			wn = append(wn, entry{row: i, val: w[i]})
		}
	}
	s.etas = append(s.etas, eta{p: leave, w: wn, wp: wp})
	if len(s.etas) >= maxEtas {
		return s.refactorize()
	}
	return nil
}

// solveLP runs phase 1 then phase 2 from the current basis.
func (s *lpSolver) solveLP() (lpStatus, error) {
	// Phase 1 is needed when any basic variable is out of bounds or an
	// artificial is positive.
	if s.needsPhase1() {
		s.phase1Costs()
		st, err := s.solve()
		if err != nil || st == lpTimeLimit {
			return st, err
		}
		if s.phase1Objective() > 1e-6 {
			return lpInfeasible, nil
		}
	}
	s.phase2Costs()
	return s.solve()
}

// needsPhase1 reports whether any artificial is positive.
func (s *lpSolver) needsPhase1() bool {
	for i, b := range s.basic {
		if b >= s.nBase && s.xB[i] > feasTol {
			return true
		}
	}
	return false
}

// phase1Objective sums artificial values.
func (s *lpSolver) phase1Objective() float64 {
	v := 0.0
	for i, b := range s.basic {
		if b >= s.nBase {
			v += s.xB[i]
		}
	}
	for j := s.nBase; j < s.n; j++ {
		if s.state[j] != stBasic {
			v += s.nonbasicValue(j)
		}
	}
	return v
}

// primalValues extracts the structural solution.
func (s *lpSolver) primalValues() []float64 {
	x := make([]float64, s.nOrig)
	for j := 0; j < s.nOrig; j++ {
		if s.state[j] != stBasic {
			x[j] = s.nonbasicValue(j)
		}
	}
	for i, b := range s.basic {
		if b < s.nOrig {
			x[b] = s.xB[i]
		}
	}
	return x
}

// structuralObjective evaluates the true objective at the current point.
func (s *lpSolver) structuralObjective() float64 {
	v := 0.0
	x := s.primalValues()
	for j := 0; j < s.nOrig; j++ {
		v += float64(s.obj[j] * x[j])
	}
	return v
}

// resolveAfterBoundChange re-solves the LP after variable bounds (and
// possibly the nonbasic state vector) changed. The caller's state vector
// is the warm start: the basis is reconstructed from it (slacks basic
// where feasible, artificials patching the rest), phase 1 restores
// feasibility, and phase 2 re-optimizes.
func (s *lpSolver) resolveAfterBoundChange() (lpStatus, error) {
	st, err := s.primalRepair()
	if err != nil || st == lpTimeLimit || st == lpInfeasible {
		return st, err
	}
	s.phase2Costs()
	return s.solve()
}

// basicInfeasible reports whether some basic variable violates its bounds.
func (s *lpSolver) basicInfeasible() bool {
	for i, b := range s.basic {
		if s.xB[i] < s.lo[b]-feasTol || s.xB[i] > s.hi[b]+feasTol {
			return true
		}
	}
	return false
}

// primalRepair restores primal feasibility by relaxing violated basics
// onto artificial columns and minimizing the violation.
func (s *lpSolver) primalRepair() (lpStatus, error) {
	// Rebuild from scratch: structural nonbasics stay where they are
	// (snapped into bounds), and rows that cannot be balanced by their
	// slack get artificials. Preserving the old basis would be a
	// performance nicety; correctness first.
	s.rebuildFromStates()
	if err := s.refactorize(); err != nil {
		return 0, err
	}
	if s.needsPhase1() || s.basicInfeasible() {
		s.phase1Costs()
		st, err := s.solve()
		if err != nil || st == lpTimeLimit {
			return st, err
		}
		if s.phase1Objective() > 1e-6 {
			return lpInfeasible, nil
		}
	}
	return lpOptimal, nil
}

// dropArtificials truncates the artificial column tail, restoring the
// solver's column space to the shared structural+slack base.
func (s *lpSolver) dropArtificials() {
	base := s.nBase
	s.artRow = s.artRow[:0]
	s.artVal = s.artVal[:0]
	s.lo = s.lo[:base]
	s.hi = s.hi[:base]
	s.obj = s.obj[:base]
	if len(s.state) > base {
		s.state = s.state[:base]
	}
	s.n = base
}

// rebuildFromStates drops all artificials and reconstructs a feasible
// starting basis: slacks basic where possible, artificials elsewhere.
// Structural nonbasic states are preserved (snapped into bounds).
func (s *lpSolver) rebuildFromStates() {
	s.dropArtificials()
	// Snap structural nonbasics into bounds; make all slacks nonbasic
	// then rebuild residuals.
	for j := 0; j < s.nOrig; j++ {
		if s.state[j] == stBasic {
			s.state[j] = stLower
			if math.IsInf(s.lo[j], -1) {
				s.state[j] = stUpper
			}
		}
		if s.state[j] == stLower && math.IsInf(s.lo[j], -1) {
			s.state[j] = stUpper
		}
		if s.state[j] == stUpper && math.IsInf(s.hi[j], 1) {
			s.state[j] = stLower
		}
	}
	r := s.bufA
	copy(r, s.rhs)
	for j := 0; j < s.nOrig; j++ {
		xj := s.nonbasicValue(j)
		//lint:exactfloat nonbasic values are stored bounds (or literal 0), never computed; sparsity fast path
		if xj == 0 {
			continue
		}
		s.scatterCol(j, -xj, r)
	}
	for i := 0; i < s.m; i++ {
		sl := s.nOrig + i
		if r[i] >= s.lo[sl]-feasTol && r[i] <= s.hi[sl]+feasTol {
			s.basic[i] = sl
			s.state[sl] = stBasic
			s.xB[i] = clamp(r[i], s.lo[sl], s.hi[sl])
			continue
		}
		near := s.lo[sl]
		nst := stLower
		if math.IsInf(near, -1) || (r[i] > s.hi[sl] && !math.IsInf(s.hi[sl], 1)) {
			near, nst = s.hi[sl], stUpper
		}
		s.state[sl] = nst
		resid := r[i] - near
		sign := 1.0
		if resid < 0 {
			sign = -1
		}
		av := s.nBase + len(s.artRow)
		s.artRow = append(s.artRow, int32(i))
		s.artVal = append(s.artVal, sign)
		s.lo = append(s.lo, 0)
		s.hi = append(s.hi, Inf)
		s.obj = append(s.obj, 0)
		s.state = append(s.state, stBasic)
		s.basic[i] = av
		s.xB[i] = math.Abs(resid)
	}
	s.n = s.nBase + len(s.artRow)
	s.factor = nil
	s.etas = s.etas[:0]
}
