package ilp

// Root dive. When the root LP is fractional, branch & bound first dives
// once from the root: it fixes one fractional variable per step and
// re-solves the node LP warm, as a tree node would be. On the tight
// placement series the root bound is usually the optimum already, and
// the tree spends its nodes and strong-branch trials only finding an
// integral point that meets it. A dive that reaches such a point proves
// it optimal by the root bound alone, and the solve ends at node 1.
//
// The dive runs in the sequential section on the root solver, before
// the root's strong branching, and reads nothing but the model and the
// root LP, so it is a pure function of the instance for every pool
// size. A failed dive leaves nothing behind: it records no pseudocost
// and no incumbent, and every later LP installs its own bounds and
// basis from its work item, so the tree that follows is the one
// branch & bound grows without a dive. Only SimplexIters and
// LURefactors count its work.

// diveIterFactor bounds the dive's simplex iterations, as a multiple of
// the root LP's. On the tight series a dive that succeeds takes a
// fraction of the root LP's iterations, and one that fails gives up
// within about 1.6 of them.
const diveIterFactor = 2

// diveResult is the outcome of the root dive: the canonical integral
// point and its objective when the dive met the root bound (x is nil
// when it did not), the variables it fixed, and the LP work it spent.
type diveResult struct {
	x                []float64
	obj              float64
	steps            int
	iters, refactors int
}

// rootDive dives from the solved root (root, rootRes). Each step fixes
// the fractional integer variable with the largest LP value up, and, if
// that child LP is not optimal or its pruning bound exceeds the root's,
// down instead. It fails when both children fail, when the deadline
// passes, when the iteration budget is spent, or when it ends at an
// integral point above the root bound.
func (b *bnb) rootDive(s *lpSolver, root *workItem, rootRes *nodeResult) diveResult {
	var d diveResult
	budget := diveIterFactor * b.stats.SimplexIters
	it, r := root, rootRes
	for {
		j := b.diveVar(r.x)
		if j < 0 {
			x, obj := b.canonical(r.x)
			if obj <= b.rootBound+incTol {
				d.x, d.obj = x, obj
			}
			return d
		}
		kids := b.makeChildren(it, r, j)
		if !kids[0].branchUp {
			kids[0], kids[1] = kids[1], kids[0]
		}
		var next *workItem
		for _, child := range kids {
			if d.iters >= budget || b.deadlineExpired() {
				return d
			}
			res := solveNode(s, child)
			d.iters += res.iters
			d.refactors += res.refactors
			if res.err == nil && res.st == lpOptimal && b.pruneBound(res.raw) <= b.rootBound+incTol {
				next, r = child, &res
				break
			}
		}
		if next == nil {
			return d
		}
		it = next
		d.steps++
	}
}

// diveVar returns the fractional integer variable with the largest LP
// value in x (the lowest index among ties), or -1 when x is integral.
func (b *bnb) diveVar(x []float64) int {
	best := -1
	for j, v := range b.model.vars {
		if v.integer && fractional(x[j]) && (best < 0 || x[j] > x[best]) {
			best = j
		}
	}
	return best
}
