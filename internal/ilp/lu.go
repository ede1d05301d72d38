package ilp

import (
	"errors"
	"math"

	"rulefit/internal/invariant"
)

// Sparse LU factorization of a square basis matrix, in the Gilbert-Peierls
// left-looking style: columns are factored in order, each by a sparse
// triangular solve against the L columns computed so far, with partial
// (threshold) pivoting on rows.
//
// The factorization is PB = LU up to the row permutation recorded in
// pivotRow: column j of the basis pivots on original row pivotRow[j].
//
// Storage is struct-of-arrays: L and U each live in one (ptr, rows, vals)
// column-compressed slab grown append-only while columns are factored in
// order, instead of one heap allocation per column. At paper scale the
// factorization is rebuilt thousands of times per solve, so the slab
// layout both kills the per-column allocator traffic and keeps the
// triangular-solve sweeps on contiguous memory.

// entry is one nonzero of a sparse column.
type entry struct {
	row int
	val float64
}

// luFactor is a sparse LU factorization supporting Ax=b and A^T y=c
// solves. It is immutable once luFactorize returns, so branch & bound
// snapshots may share one factor across worker goroutines as long as
// each caller passes its own scratch vector to ftranInto/btranInto.
type luFactor struct {
	m int
	// L's columns: entries strictly below the unit diagonal, indexed by
	// original row. Column j spans lrows/lvals[lptr[j]:lptr[j+1]].
	lptr  []int32
	lrows []int32
	lvals []float64
	// U's columns: entries (k, val) where k < j is the factor column
	// index (permuted row), excluding the diagonal (kept in udiag).
	uptr  []int32
	urows []int32
	uvals []float64
	udiag []float64
	// pivotRow[j] is the original row chosen as pivot for column j;
	// rowOfPiv is its inverse (original row -> factor index).
	pivotRow []int32
	rowOfPiv []int32
}

// errSingular reports a numerically singular basis.
var errSingular = errors.New("ilp: singular basis matrix")

// luWorkspace holds the scatter/DFS scratch reused across
// factorizations. The factored output cannot be reused (snapshots keep
// old factors alive), but the symbolic scratch — the bulk of the
// transient allocation — can.
type luWorkspace struct {
	dense   []float64 // scatter accumulator, by original row
	mark    []bool    // nonzero pattern flags, by original row
	visited []int32   // DFS visit stamps, by factor index
	stamp   int32     // current DFS stamp
	order   []int32   // topological order of reached factor cols
	pattern []int32   // nonzero original rows of the column
	frames  []luFrame // DFS stack
}

// luFrame is one iterative-DFS stack frame over the L structure.
type luFrame struct {
	col int32
	pos int32
}

// reset sizes the workspace for an m-row factorization.
func (ws *luWorkspace) reset(m int) {
	if cap(ws.dense) < m {
		ws.dense = make([]float64, m)
		ws.mark = make([]bool, m)
		ws.visited = make([]int32, m)
		ws.stamp = 0
	}
	ws.dense = ws.dense[:m]
	ws.mark = ws.mark[:m]
	ws.visited = ws.visited[:m]
	ws.order = ws.order[:0]
	ws.pattern = ws.pattern[:0]
	ws.frames = ws.frames[:0]
}

// luFactorize factors the m x m matrix given column-wise. Compatibility
// entry point (tests and benches); the solver hot path uses
// luFactorizeCSC with a reused workspace.
func luFactorize(m int, cols [][]entry) (*luFactor, error) {
	nnz := 0
	for _, c := range cols {
		nnz += len(c)
	}
	ptr := make([]int32, m+1)
	rows := make([]int32, 0, nnz)
	vals := make([]float64, 0, nnz)
	for j, c := range cols {
		for _, e := range c {
			rows = append(rows, int32(e.row))
			vals = append(vals, e.val)
		}
		ptr[j+1] = int32(len(rows))
	}
	var ws luWorkspace
	return luFactorizeCSC(m, ptr, rows, vals, &ws)
}

// luFactorizeCSC factors the m x m matrix given in compressed sparse
// column form. ws provides the symbolic scratch; it is reset here and
// may be reused across calls.
func luFactorizeCSC(m int, ptr []int32, rows []int32, vals []float64, ws *luWorkspace) (*luFactor, error) {
	nnz := len(rows)
	f := &luFactor{
		m:        m,
		lptr:     make([]int32, m+1),
		uptr:     make([]int32, m+1),
		udiag:    make([]float64, m),
		pivotRow: make([]int32, m),
		rowOfPiv: make([]int32, m),
		// The input nnz is a reasonable first guess for L and U; the
		// slabs grow by append when fill-in exceeds it.
		lrows: make([]int32, 0, nnz),
		lvals: make([]float64, 0, nnz),
		urows: make([]int32, 0, nnz),
		uvals: make([]float64, 0, nnz),
	}
	for i := range f.rowOfPiv {
		f.rowOfPiv[i] = -1
	}
	ws.reset(m)
	dense, mark := ws.dense, ws.mark

	for j := 0; j < m; j++ {
		// Scatter column j.
		pattern := ws.pattern[:0]
		order := ws.order[:0]
		ws.stamp++
		for p := ptr[j]; p < ptr[j+1]; p++ {
			r := rows[p]
			if mark[r] {
				dense[r] += vals[p]
				continue
			}
			mark[r] = true
			dense[r] = vals[p]
			pattern = append(pattern, r)
		}
		// Symbolic: DFS from each nonzero landing on an already-pivoted
		// row, collecting reached factor columns in reverse-topological
		// order (appended post-order, applied in reverse below).
		for _, r := range pattern {
			k := f.rowOfPiv[r]
			if k >= 0 && ws.visited[k] != ws.stamp {
				order = f.dfsReach(k, ws.visited, ws.stamp, &ws.frames, order)
			}
		}
		// Numeric: apply reached L columns in topological order.
		for idx := len(order) - 1; idx >= 0; idx-- {
			k := order[idx]
			pr := f.pivotRow[k]
			xk := dense[pr]
			//lint:exactfloat sparsity skip: only exact zeros (untouched scatter slots) may be skipped without changing the factorization
			if xk == 0 {
				continue
			}
			for p := f.lptr[k]; p < f.lptr[k+1]; p++ {
				r := f.lrows[p]
				if !mark[r] {
					mark[r] = true
					dense[r] = 0
					pattern = append(pattern, r)
				}
				dense[r] -= float64(xk * f.lvals[p])
			}
		}
		// Pivot selection: largest magnitude among unpivoted rows; the
		// already-pivoted rows become U entries.
		pivot, pmax := int32(-1), 0.0
		for _, r := range pattern {
			if f.rowOfPiv[r] >= 0 {
				continue
			}
			if a := math.Abs(dense[r]); a > pmax {
				pmax, pivot = a, r
			}
		}
		// Unreached rows may still hold the pivot when the column has
		// entries only in pivoted rows (then the matrix is singular).
		if pivot < 0 || pmax < 1e-11 {
			// Clean up scatter state before failing.
			for _, r := range pattern {
				mark[r] = false
				dense[r] = 0
			}
			ws.pattern, ws.order = pattern[:0], order[:0]
			return nil, errSingular
		}
		piv := dense[pivot]
		f.pivotRow[j] = pivot
		f.rowOfPiv[pivot] = int32(j)
		f.udiag[j] = piv
		for _, r := range pattern {
			v := dense[r]
			mark[r] = false
			dense[r] = 0
			//lint:exactfloat exact-zero fill-in carries no information; near-zeros are dropped below against 1e-13 thresholds
			if v == 0 || r == pivot {
				continue
			}
			if k := f.rowOfPiv[r]; k >= 0 && int(k) < j {
				if math.Abs(v) > 1e-13 {
					f.urows = append(f.urows, k)
					f.uvals = append(f.uvals, v)
				}
			} else if math.Abs(v/piv) > 1e-13 {
				f.lrows = append(f.lrows, r)
				f.lvals = append(f.lvals, v/piv)
			}
		}
		f.lptr[j+1] = int32(len(f.lrows))
		f.uptr[j+1] = int32(len(f.urows))
		ws.pattern, ws.order = pattern[:0], order[:0]
	}
	if invariant.Enabled {
		// Roundtrip probe: solve B x = B·1 and expect x ≈ 1. The error
		// scales with the basis condition number, so the tolerance is
		// generous — this asserts a structurally broken factorization
		// (bad permutation, dropped column), not numerical accuracy.
		probe := make([]float64, m)
		for p := 0; p < nnz; p++ {
			probe[rows[p]] += vals[p]
		}
		f.ftranInto(probe, make([]float64, m))
		worst := 0.0
		for _, x := range probe {
			if d := math.Abs(x - 1); d > worst {
				worst = d
			}
		}
		invariant.Assert(worst <= 1e-3*float64(1+m),
			"luFactorize: roundtrip probe error %g on %d x %d basis", worst, m, m)
	}
	return f, nil
}

// dfsReach performs an iterative DFS over the L structure from factor
// column k, appending finished nodes to order (post-order).
func (f *luFactor) dfsReach(k int32, visited []int32, stamp int32, frames *[]luFrame, order []int32) []int32 {
	fr := (*frames)[:0]
	fr = append(fr, luFrame{col: k})
	visited[k] = stamp
	for len(fr) > 0 {
		top := &fr[len(fr)-1]
		adv := false
		end := f.lptr[top.col+1]
		for p := f.lptr[top.col] + top.pos; p < end; p++ {
			top.pos++
			r := f.lrows[p]
			if kk := f.rowOfPiv[r]; kk >= 0 && visited[kk] != stamp {
				visited[kk] = stamp
				fr = append(fr, luFrame{col: kk})
				adv = true
				break
			}
		}
		if !adv && f.lptr[top.col]+top.pos >= end {
			order = append(order, top.col)
			fr = fr[:len(fr)-1]
		}
	}
	*frames = fr[:0]
	return order
}

// ftran solves B x = b in place, allocating its own scratch.
// Compatibility wrapper; hot paths use ftranInto with a reused buffer.
func (f *luFactor) ftran(b []float64) {
	f.ftranInto(b, make([]float64, f.m))
}

// ftranInto solves B x = b in place: b is indexed by original row on
// input, and on output x is indexed by factor column (i.e. x[j] is the
// value of the basic variable in factor position j). scratch must have
// length >= m and is clobbered; it exists so the solver's hot loop
// performs no per-solve allocation.
func (f *luFactor) ftranInto(b, scratch []float64) {
	// Forward solve L y = Pb: process factor columns in order.
	for j := 0; j < f.m; j++ {
		y := b[f.pivotRow[j]]
		//lint:exactfloat sparsity skip of exact zeros in the solve vector; any nonzero, however small, must propagate
		if y == 0 {
			continue
		}
		for p := f.lptr[j]; p < f.lptr[j+1]; p++ {
			b[f.lrows[p]] -= float64(y * f.lvals[p])
		}
	}
	// Gather into factor order and back-substitute U x = y.
	x := scratch[:f.m]
	for j := 0; j < f.m; j++ {
		x[j] = b[f.pivotRow[j]]
	}
	for j := f.m - 1; j >= 0; j-- {
		x[j] /= f.udiag[j]
		xj := x[j]
		//lint:exactfloat sparsity skip of exact zeros in the solve vector; any nonzero, however small, must propagate
		if xj == 0 {
			continue
		}
		for p := f.uptr[j]; p < f.uptr[j+1]; p++ {
			x[f.urows[p]] -= float64(xj * f.uvals[p])
		}
	}
	copy(b[:f.m], x)
}

// btran solves B^T y = c in place, allocating its own scratch.
// Compatibility wrapper; hot paths use btranInto with a reused buffer.
func (f *luFactor) btran(c []float64) {
	f.btranInto(c, make([]float64, f.m))
}

// btranInto solves B^T y = c in place: c is indexed by factor column on
// input; on output y is indexed by original row. scratch must have
// length >= m and is clobbered.
func (f *luFactor) btranInto(c, scratch []float64) {
	// Solve U^T z = c: forward over factor columns.
	for j := 0; j < f.m; j++ {
		acc := c[j]
		for p := f.uptr[j]; p < f.uptr[j+1]; p++ {
			acc -= float64(f.uvals[p] * c[f.urows[p]])
		}
		c[j] = acc / f.udiag[j]
	}
	// Solve L^T (Py) = z: backward.
	y := scratch[:f.m]
	for j := 0; j < f.m; j++ {
		y[j] = c[j]
	}
	for j := f.m - 1; j >= 0; j-- {
		acc := y[j]
		for p := f.lptr[j]; p < f.lptr[j+1]; p++ {
			acc -= float64(f.lvals[p] * y[f.rowOfPiv[f.lrows[p]]])
		}
		y[j] = acc
	}
	for j := 0; j < f.m; j++ {
		c[f.pivotRow[j]] = y[j]
	}
}
