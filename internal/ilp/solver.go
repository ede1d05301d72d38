package ilp

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rulefit/internal/invariant"
	"rulefit/internal/obs"
)

// Options controls a solve.
type Options struct {
	// TimeLimit bounds the wall-clock solve time (0 = no limit).
	TimeLimit time.Duration
	// NodeLimit bounds branch & bound nodes (0 = no limit).
	NodeLimit int
	// FullPricing forces full Dantzig pricing on every simplex
	// iteration instead of partial pricing (debug/ablation).
	FullPricing bool
	// Sink receives structured solver events (nil disables tracing; the
	// disabled path costs one branch per emission site). Events are
	// emitted only from the solver's sequential sections and nothing is
	// ever read back from the sink, so the search — and the returned
	// solution — is byte-identical with tracing on or off and the event
	// sequence is identical (modulo Event.TimeMS) for any pool size.
	Sink obs.Sink
	// Span, when non-nil, is the parent under which the solver opens
	// root_lp / search timing child spans.
	Span *obs.Span
}

// Solve minimizes the model. The returned solution's Values are rounded
// to integers for integer variables when a solution is found.
//
// Branch & bound runs min(GOMAXPROCS, batchNodes) worker goroutines. The
// status, objective, solution and every Stats counter but Workers are
// independent of that pool size: nodes are expanded in fixed-size
// synchronous rounds, each node LP is a pure function of its work item,
// and round results are merged in a deterministic order.
func Solve(m *Model, opts Options) (Solution, error) {
	return solve(m, opts, min(runtime.GOMAXPROCS(0), batchNodes))
}

// solve is Solve on a pool of the given size (at least 1).
func solve(m *Model, opts Options, workers int) (Solution, error) {
	start := time.Now()
	if err := m.Validate(); err != nil {
		return Solution{}, err
	}
	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}
	bb := &bnb{
		model:       m,
		deadline:    deadline,
		nodeCap:     opts.NodeLimit,
		stats:       Stats{Workers: workers, Gap: -1, RootGap: -1},
		fullPricing: opts.FullPricing,
		workers:     workers,
		sink:        opts.Sink,
		span:        opts.Span,
		start:       start,
		lostBound:   math.Inf(1),
	}
	return bb.run()
}

// msSince is the wall-clock offset stamped on events. Timing only —
// never read back into the search.
func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1e3
}

// Branch & bound constants.
const (
	// batchNodes is the number of deque items expanded per synchronous
	// round once an incumbent exists. It is a constant — NOT derived
	// from the pool size — because the node expansion schedule must be
	// a pure function of the instance for every pool size to return
	// identical results. It also caps the pool: workers beyond
	// batchNodes cannot be kept busy.
	batchNodes = 16
	// lexTol is the per-component tolerance of the lexicographic
	// incumbent comparison; integer components are rounded before the
	// comparison, so distinct placements differ by at least 1.
	lexTol = 1e-9
	// incTol is the objective margin for bound-domination pruning: a
	// subtree whose LP bound is within incTol of the incumbent cannot
	// contain a strictly better solution and is cut.
	incTol = 1e-9
	// tieTol is the objective tolerance under which two incumbents are
	// considered tied and compared lexicographically instead.
	tieTol = 1e-6
)

// Pseudocost / reliability branching constants. All selection happens
// in the sequential sections (run and the merge loop), so the
// pseudocost tables never race and the branching decisions are a pure
// function of the instance.
const (
	// relK is the reliability threshold: a variable is strong-branched
	// until it has this many real observations per direction.
	relK = 4
	// sbMaxPerNode caps how many candidates one node may strong-branch
	// (most fractional first, ties by index).
	sbMaxPerNode = 4
	// sbIterCap bounds each strong-branch trial's dual simplex pivots;
	// a truncated trial still yields a usable objective-gain estimate.
	sbIterCap = 100
	// sbTotalBudget caps strong-branch trials per solve, bounding the
	// reliability phase on instances with many variables.
	sbTotalBudget = 256
)

// bnb is the branch & bound driver. Parallelism is deterministic by
// construction: the frontier is a LIFO deque of self-contained work
// items; each round pops a fixed-size batch in deque order, a worker
// pool solves the batch's node LPs concurrently (each LP result is a
// pure function of its item), and the results are merged sequentially
// in batch order — pruning, incumbent updates, and child pushes all
// happen in the merge. Thread scheduling and worker count therefore
// influence only wall-clock time, never the search tree or the answer.
type bnb struct {
	model    *Model
	deadline time.Time
	nodeCap  int
	stats    Stats
	workers  int

	// sink/span/start feed the observability layer. All emission happens
	// in the sequential sections (run and the merge loop), and nothing is
	// read back, so they cannot perturb the search.
	sink  obs.Sink
	span  *obs.Span
	start time.Time

	// rootBound is the root relaxation bound (ceiled when the objective
	// is integral); haveRoot marks it valid. Feeds Stats.RootGap.
	rootBound float64
	haveRoot  bool

	objIntegral bool
	fullPricing bool

	deque []*workItem // LIFO: dive-first children are pushed last

	// Pseudocost state: per-variable per-unit objective-gain averages
	// from real child solves and reliability strong-branch trials, plus
	// global totals used as priors for unobserved variables. Mutated
	// only in sequential sections.
	pcDownSum, pcUpSum []float64
	pcDownCnt, pcUpCnt []int
	pcObsDownSum       float64
	pcObsUpSum         float64
	pcObsDownCnt       int
	pcObsUpCnt         int

	// Strong-branching scratch: sbSolver is the sequential-phase solver
	// (worker 0's), reused for trial solves between batches; sbLo/sbHi
	// are trial bound buffers; sbEvalsLeft is the per-solve budget.
	sbSolver    *lpSolver
	sbLo, sbHi  []float64
	sbEvalsLeft int
	candBuf     []int

	incumbent    []float64
	incumbentObj float64
	haveInc      bool

	hitDeadline  bool
	hitNodeLimit bool
	// lostSubtree records that some node was pruned for a reason other
	// than proven infeasibility or bound domination (time limit,
	// numerics); a clean "Infeasible" or "Optimal" conclusion is then
	// impossible.
	lostSubtree bool
	// lostBound is the lowest pruning bound among lost subtrees; open
	// lost subtrees cap how good BestBound may claim to be.
	lostBound float64
}

// workItem is one branch & bound subtree: the structural variable bounds
// of the node and the parent's nonbasic state vector used to warm start
// the node's LP. Each item is self-contained, so the node's LP result is
// a pure function of the item no matter which worker solves it or when.
type workItem struct {
	lo, hi []float64 // structural bounds (len nOrig)
	state  []int8    // parent states for structurals+slacks (shared, read-only)
	bound  float64   // parent's pruning bound (ceiled when the objective is integral)
	raw    float64   // parent's raw LP objective, for monotonicity checks

	// snap is the parent's factored basis (shared read-only by both
	// children); nil forces the cold solve path. branchVar/branchUp/frac
	// record the branching decision that created the item: the warm
	// start applies it as a single bound delta, and the merge feeds the
	// observed objective gain back into the pseudocost tables.
	snap      *basisSnapshot
	branchVar int
	branchUp  bool
	frac      float64 // parent LP fractional part of branchVar

	// id is the 1-based expansion number (assigned when the item is
	// popped and counted as a node; the root is 1). parent/depth identify
	// the item's place in the tree for trace events; none of the three
	// influence the search.
	id     int
	parent int
	depth  int
}

// nodeResult is the outcome of one node LP solve, captured by a worker
// for the deterministic merge.
type nodeResult struct {
	st        lpStatus
	err       error
	raw       float64        // LP objective at the node
	x         []float64      // structural primal values
	state     []int8         // post-solve nonbasic states (structurals+slacks)
	snap      *basisSnapshot // post-solve factored basis for the children (nil: not reusable)
	warm      bool           // the node reused its parent's basis (dual-simplex warm start)
	iters     int            // simplex iterations spent on this node
	refactors int            // LU refactorizations spent on this node
}

func (b *bnb) run() (Solution, error) {
	if b.sink != nil {
		b.emit(obs.Event{Kind: obs.KindStart, BranchVar: -1, Gap: -1})
	}
	m := b.model
	b.objIntegral = true
	for _, v := range m.vars {
		//lint:exactfloat integrality test: Trunc(x) == x exactly iff x is an integer; a tolerance would mis-classify near-integers
		if v.obj != math.Trunc(v.obj) {
			b.objIntegral = false
			break
		}
	}
	rootSp := b.span.Child("root_lp")
	s := newLPSolver(m)
	s.deadline = b.deadline
	s.fullPricing = b.fullPricing
	s.initBasis()
	st, err := s.solveLP()
	rootSp.SetCount("iters", int64(s.iters))
	rootSp.SetCount("refactors", int64(s.refactors))
	rootSp.End()
	if err != nil {
		return Solution{}, err
	}
	b.stats.SimplexIters = s.iters
	b.stats.LURefactors = s.refactors
	switch st {
	case lpInfeasible:
		return b.noSolution(Infeasible)
	case lpUnbounded:
		return b.noSolution(Unbounded)
	case lpTimeLimit:
		b.hitDeadline = true
		return b.noSolution(LimitReached)
	}

	// Pseudocost and strong-branch state (sequential sections only).
	nv := len(m.vars)
	b.pcDownSum = make([]float64, nv)
	b.pcUpSum = make([]float64, nv)
	b.pcDownCnt = make([]int, nv)
	b.pcUpCnt = make([]int, nv)
	b.sbSolver = s
	b.sbLo = make([]float64, s.nOrig)
	b.sbHi = make([]float64, s.nOrig)
	b.sbEvalsLeft = sbTotalBudget

	b.incumbentObj = math.Inf(1)
	b.stats.BnBNodes = 1 // root

	rootRaw := s.structuralObjective()
	if b.sink != nil {
		b.emit(obs.Event{Kind: obs.KindRootLP, Bound: rootRaw,
			Iters: s.iters, Refactors: s.refactors, BranchVar: -1, Gap: -1})
	}
	rootBound := rootRaw
	if b.objIntegral {
		rootBound = math.Ceil(rootBound - 1e-6)
	}
	b.rootBound, b.haveRoot = rootBound, true

	rootX := s.primalValues()
	root := &workItem{
		lo:        append([]float64(nil), s.lo[:s.nOrig]...),
		hi:        append([]float64(nil), s.hi[:s.nOrig]...),
		id:        1,
		branchVar: -1,
	}
	rootRes := nodeResult{
		raw:   rootRaw,
		x:     rootX,
		state: append([]int8(nil), s.state[:s.nBase]...),
		snap:  s.captureSnapshot(),
	}
	if frac := b.selectBranch(root, &rootRes); frac >= 0 {
		b.stats.Branched++
		if b.sink != nil {
			f := rootX[frac] - math.Floor(rootX[frac])
			b.emit(obs.Event{Kind: obs.KindNode, Node: 1, Outcome: obs.OutcomeBranched,
				Bound: rootBound, BranchVar: frac, Frac: math.Min(f, 1-f), Gap: -1})
		}
		b.deque = b.makeChildren(root, &rootRes, frac)
		searchSp := b.span.Child("search")
		err := b.search(s)
		searchSp.SetCount("nodes", int64(b.stats.BnBNodes))
		searchSp.End()
		if err != nil {
			return Solution{}, err
		}
	} else {
		b.stats.IntegralLeaves++
		b.stats.Incumbents++
		b.stats.LastIncumbentAtNode = 1
		x, obj := b.canonical(rootX)
		if b.sink != nil {
			b.emit(obs.Event{Kind: obs.KindNode, Node: 1, Outcome: obs.OutcomeIntegral,
				Bound: rootBound, BranchVar: -1, Gap: -1})
			b.emit(obs.Event{Kind: obs.KindIncumbent, Node: 1, Incumbent: obj, Gap: -1})
		}
		return b.finish(x, obj, true)
	}

	if b.hitDeadline || b.hitNodeLimit {
		if b.haveInc {
			return b.finish(b.incumbent, b.incumbentObj, false)
		}
		return b.noSolution(LimitReached)
	}
	if b.haveInc {
		return b.finish(b.incumbent, b.incumbentObj, !b.lostSubtree)
	}
	if b.lostSubtree {
		return b.noSolution(LimitReached)
	}
	return b.noSolution(Infeasible)
}

// emit stamps the wall-clock offset onto an event and forwards it to
// the sink. Callers guard with b.sink != nil so the disabled path never
// constructs events.
func (b *bnb) emit(e obs.Event) {
	e.TimeMS = msSince(b.start)
	b.sink.Event(e)
}

// stopReason derives the stop reason from the limit flags, in
// precedence order.
func (b *bnb) stopReason() StopReason {
	switch {
	case b.hitDeadline:
		return StopDeadline
	case b.hitNodeLimit:
		return StopNodeLimit
	case b.lostSubtree:
		return StopLostSubtree
	}
	return StopNone
}

// openBound is the lowest LP bound among subtrees not yet explored: the
// open deque items plus any lost subtrees. The true optimum cannot lie
// below it.
func (b *bnb) openBound() float64 {
	bound := b.lostBound
	for _, it := range b.deque {
		if it.bound < bound {
			bound = it.bound
		}
	}
	return bound
}

// bestBoundAndGap computes the final proof state for an incumbent with
// objective obj. The bound is clamped to obj so the gap is never
// negative, and both stay finite (JSON-safe).
func (b *bnb) bestBoundAndGap(obj float64, proven bool) (float64, float64) {
	if proven {
		return obj, 0
	}
	bb := b.openBound()
	if bb > obj {
		bb = obj
	}
	return bb, (obj - bb) / math.Max(math.Abs(obj), 1e-9)
}

// noSolution finalizes a solve that ends without an incumbent
// (infeasible, unbounded, or a limit hit before any integer solution).
func (b *bnb) noSolution(status Status) (Solution, error) {
	b.stats.StopReason = b.stopReason()
	b.stats.Gap = -1
	if b.sink != nil {
		b.emit(obs.Event{Kind: obs.KindDone, Node: b.stats.BnBNodes, Outcome: status.String(),
			Reason: b.stats.StopReason.String(), Iters: b.stats.SimplexIters,
			Refactors: b.stats.LURefactors, BranchVar: -1, Gap: -1})
	}
	return Solution{Status: status, Stats: b.stats}, nil
}

// search runs the synchronous-rounds tree search. Per round: pop live
// items off the LIFO deque in deterministic order, solve their node LPs
// concurrently on the worker pool, and merge the results sequentially
// in batch order. Because node selection, LP results, and the merge are
// all independent of thread timing, the entire search — and therefore
// the answer — is a pure function of the instance; workers change only
// wall-clock time.
//
// The round width itself is part of that pure function: while no
// incumbent exists the batch is a single node, which makes the search a
// plain depth-first dive (identical node order to a sequential solver —
// a wider beam before the first incumbent only burns nodes, since
// nothing can be pruned yet). Once an incumbent lands, rounds widen to
// batchNodes so workers have parallel work, and bound pruning keeps the
// slightly stale frontier cheap.
func (b *bnb) search(s *lpSolver) error {
	// Worker 0 reuses the root solver; the rest get clones, taken
	// before any node mutates s.
	solvers := make([]*lpSolver, b.workers)
	solvers[0] = s
	for i := 1; i < b.workers; i++ {
		solvers[i] = s.clone()
	}

	batch := make([]*workItem, 0, batchNodes)
	results := make([]nodeResult, batchNodes)
	for len(b.deque) > 0 {
		width := 1
		if b.haveInc {
			width = batchNodes
		}
		batch = batch[:0]
		for len(batch) < width && len(b.deque) > 0 {
			// Check the cap before popping: every item that leaves the
			// deque is either skipped (stale) or counted AND solved, so
			// the per-outcome counters always sum to BnBNodes.
			if b.nodeCap > 0 && b.stats.BnBNodes >= b.nodeCap {
				b.hitNodeLimit = true
				break
			}
			n := len(b.deque)
			it := b.deque[n-1]
			b.deque[n-1] = nil
			b.deque = b.deque[:n-1]
			if b.haveInc && it.bound >= b.incumbentObj-incTol {
				// Subtree dominated since it was pushed: discarded before
				// becoming a node, so it gets no id and no outcome.
				b.stats.PrunedStale++
				if b.sink != nil {
					b.emit(obs.Event{Kind: obs.KindSkip, Parent: it.parent, Depth: it.depth,
						Bound: it.bound, BranchVar: -1, Gap: -1})
				}
				continue
			}
			b.stats.BnBNodes++
			it.id = b.stats.BnBNodes
			batch = append(batch, it)
		}
		res := results[:len(batch)]
		b.solveBatch(solvers, batch, res)
		hadInc, prevObj := b.haveInc, b.incumbentObj
		for i, it := range batch {
			if err := b.mergeNode(it, &res[i]); err != nil {
				return err
			}
		}
		improved := b.haveInc && (!hadInc || b.incumbentObj < prevObj)
		if improved && b.sink != nil {
			// One point of the bound-gap time series per improving round.
			bb := b.incumbentObj
			if ob := b.openBound(); ob < bb {
				bb = ob
			}
			b.emit(obs.Event{Kind: obs.KindGap, Node: b.stats.BnBNodes, BranchVar: -1,
				Incumbent: b.incumbentObj, BestBound: bb,
				Gap: (b.incumbentObj - bb) / math.Max(math.Abs(b.incumbentObj), 1e-9)})
		}
		if b.hitNodeLimit {
			return nil
		}
		// Poll the wall clock once per round. A node LP stopped by the
		// deadline implies the clock is past it, so the search ends
		// after the first round that holds such a lost node.
		if b.deadlineExpired() {
			b.hitDeadline = true
			return nil
		}
	}
	return nil
}

// solveBatch fills res[i] with the LP outcome of batch[i]. Workers pull
// batch indices from an atomic counter; since each solve is a pure
// function of its item, which worker lands on which index is irrelevant
// to the results.
func (b *bnb) solveBatch(solvers []*lpSolver, batch []*workItem, res []nodeResult) {
	if len(batch) == 1 || len(solvers) == 1 {
		for i, it := range batch {
			res[i] = solveNode(solvers[0], it)
		}
		return
	}
	nw := len(solvers)
	if nw > len(batch) {
		nw = len(batch)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(s *lpSolver) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				res[i] = solveNode(s, batch[i])
			}
		}(solvers[w])
	}
	wg.Wait()
}

// solveNode installs a work item into a solver and re-solves the node
// LP. Bounds, warm-start states, and the pricing cursors are all reset
// from the item first, so the result is a pure function of the item —
// bit-identical no matter which worker solves it or what it solved
// before.
func solveNode(s *lpSolver, it *workItem) nodeResult {
	startIters, startRefactors := s.iters, s.refactors
	var st lpStatus
	var err error
	warm := false
	if it.snap != nil {
		if wst, ok, werr := warmSolveNode(s, it); ok {
			st, err, warm = wst, werr, true
		}
	}
	if !warm {
		// Cold path: rebuild a repair basis from the parent's nonbasic
		// states, phase 1, phase 2. Also the deterministic fallback when
		// the warm start stalls or hits numerics.
		copy(s.lo[:s.nOrig], it.lo)
		copy(s.hi[:s.nOrig], it.hi)
		copy(s.state[:s.nBase], it.state)
		s.priceCursor, s.priceWindow = 0, 0
		st, err = s.resolveAfterBoundChange()
	}
	r := nodeResult{st: st, err: err, warm: warm,
		iters: s.iters - startIters, refactors: s.refactors - startRefactors}
	if err != nil || st != lpOptimal {
		return r
	}
	r.raw = s.structuralObjective()
	r.x = s.primalValues()
	r.state = append([]int8(nil), s.state[:s.nBase]...)
	r.snap = s.captureSnapshot()
	return r
}

// mergeNode folds one solved node into the search state: prune it,
// record an incumbent, or push its children. Called sequentially in
// batch order, so every decision here is deterministic.
func (b *bnb) mergeNode(it *workItem, r *nodeResult) error {
	b.stats.SimplexIters += r.iters
	b.stats.LURefactors += r.refactors
	if r.warm {
		b.stats.WarmStartReuses++
	}
	if r.err != nil {
		return r.err
	}
	switch r.st {
	case lpOptimal:
	case lpInfeasible:
		// Proven empty: sound prune.
		b.stats.PrunedInfeasible++
		if b.sink != nil {
			b.emit(b.nodeEvent(it, r, obs.OutcomeInfeasible, it.bound))
		}
		return nil
	default:
		// Time limit or numeric trouble: the subtree is lost, so an
		// Infeasible or proven-Optimal conclusion is no longer possible.
		b.lostSubtree = true
		b.stats.LostSubtrees++
		if it.bound < b.lostBound {
			b.lostBound = it.bound
		}
		if b.sink != nil {
			b.emit(b.nodeEvent(it, r, obs.OutcomeLost, it.bound))
		}
		return nil
	}
	// A child LP is the parent LP plus one tightened bound, so
	// (minimizing) its objective can only rise. A drop means the warm
	// start resumed from a corrupted basis.
	invariant.Assert(r.raw >= it.raw-1e-6,
		"branch&bound: child LP bound %g below parent bound %g", r.raw, it.raw)
	// Feed the observed per-unit objective gain of this branching back
	// into the pseudocost tables (sequential section: no races).
	if it.branchVar >= 0 {
		gain := r.raw - it.raw
		if gain < 0 {
			gain = 0
		}
		den := it.frac
		if it.branchUp {
			den = 1 - it.frac
		}
		if den > 1e-9 {
			b.recordPseudocost(it.branchVar, it.branchUp, gain/den)
		}
	}
	bound := r.raw
	if b.objIntegral {
		bound = math.Ceil(bound - 1e-6)
	}
	if b.haveInc && bound >= b.incumbentObj-incTol {
		// Dominated by an incumbent merged earlier.
		b.stats.PrunedBound++
		if b.sink != nil {
			b.emit(b.nodeEvent(it, r, obs.OutcomeBound, bound))
		}
		return nil
	}
	if f := b.selectBranch(it, r); f >= 0 {
		b.stats.Branched++
		if b.sink != nil {
			e := b.nodeEvent(it, r, obs.OutcomeBranched, bound)
			e.BranchVar = f
			frac := r.x[f] - math.Floor(r.x[f])
			e.Frac = math.Min(frac, 1-frac)
			b.emit(e)
		}
		b.deque = append(b.deque, b.makeChildren(it, r, f)...)
		return nil
	}
	b.stats.IntegralLeaves++
	if b.sink != nil {
		b.emit(b.nodeEvent(it, r, obs.OutcomeIntegral, bound))
	}
	x, obj := b.canonical(r.x)
	if !b.haveInc || solutionLess(obj, x, b.incumbentObj, b.incumbent) {
		b.haveInc = true
		b.incumbentObj = obj
		b.incumbent = x
		b.stats.Incumbents++
		b.stats.LastIncumbentAtNode = it.id
		if b.sink != nil {
			b.emit(obs.Event{Kind: obs.KindIncumbent, Node: it.id, Parent: it.parent,
				Depth: it.depth, Incumbent: obj, BranchVar: -1, Gap: -1})
		}
	}
	return nil
}

// nodeEvent builds the common fields of a KindNode event. BranchVar is
// -1 (overridden by the branched outcome).
func (b *bnb) nodeEvent(it *workItem, r *nodeResult, outcome string, bound float64) obs.Event {
	return obs.Event{Kind: obs.KindNode, Node: it.id, Parent: it.parent, Depth: it.depth,
		Outcome: outcome, Bound: bound, BranchVar: -1,
		Iters: r.iters, Refactors: r.refactors, Gap: -1}
}

// makeChildren branches the just-solved node on variable j, returning
// the two children in push order (dive-first child last, so the LIFO
// deque pops it first). Both share the node's post-solve state vector;
// bounds arrays are copied per child.
func (b *bnb) makeChildren(it *workItem, r *nodeResult, j int) []*workItem {
	x := r.x[j]
	floor := math.Floor(x)
	bound := r.raw
	if b.objIntegral {
		bound = math.Ceil(bound - 1e-6)
	}
	mk := func(lo0, hi0 float64, up bool) *workItem {
		lo := append([]float64(nil), it.lo...)
		hi := append([]float64(nil), it.hi...)
		lo[j], hi[j] = lo0, hi0
		return &workItem{lo: lo, hi: hi, state: r.state, bound: bound, raw: r.raw,
			snap: r.snap, branchVar: j, branchUp: up, frac: x - floor,
			parent: it.id, depth: it.depth + 1}
	}
	down := mk(it.lo[j], floor, false)
	up := mk(floor+1, it.hi[j], true)
	if x-floor <= 0.5 {
		return []*workItem{up, down} // dive toward floor first
	}
	return []*workItem{down, up}
}

// canonical rounds the integer components of an LP point and evaluates
// the objective on the rounded vector, so incumbents compare (and are
// reported) identically no matter which node produced them.
func (b *bnb) canonical(x []float64) ([]float64, float64) {
	obj := 0.0
	for j, v := range b.model.vars {
		if v.integer {
			x[j] = math.Round(x[j])
		}
		obj += float64(v.obj * x[j])
	}
	return x, obj
}

// solutionLess is the fixed total order on incumbents: strictly better
// objective wins; objectives tied within tieTol fall back to
// lexicographic comparison of the solution vectors. Bound pruning makes
// ties rare (a candidate can tie only when its rounded objective lands
// above its LP bound), but when one occurs the winner is still decided
// by a total order, never by arrival timing.
func solutionLess(aObj float64, a []float64, bObj float64, bv []float64) bool {
	if aObj < bObj-tieTol {
		return true
	}
	if aObj > bObj+tieTol {
		return false
	}
	for i := range a {
		d := a[i] - bv[i]
		if d < -lexTol {
			return true
		}
		if d > lexTol {
			return false
		}
	}
	return false
}

// deadlineExpired reports whether the wall-clock deadline passed.
func (b *bnb) deadlineExpired() bool {
	return !b.deadline.IsZero() && time.Now().After(b.deadline)
}

// selectBranch picks the branching variable for a solved node by
// pseudocost product score, falling back to the global-average prior
// (1.0 before any observation, which degenerates to most-fractional)
// for variables without history. Candidates below the reliability
// threshold are strong-branched first. Ties break to the lowest
// variable index, so selection is deterministic.
func (b *bnb) selectBranch(it *workItem, r *nodeResult) int {
	cands := b.candBuf[:0]
	for j, v := range b.model.vars {
		if !v.integer {
			continue
		}
		f := r.x[j] - math.Floor(r.x[j])
		if math.Min(f, 1-f) > 1e-6 {
			cands = append(cands, j)
		}
	}
	b.candBuf = cands
	if len(cands) == 0 {
		return -1
	}
	if len(cands) == 1 {
		return cands[0]
	}
	b.reliabilityInit(it, r, cands)
	gDown, gUp := 1.0, 1.0
	if b.pcObsDownCnt > 0 {
		gDown = b.pcObsDownSum / float64(b.pcObsDownCnt)
	}
	if b.pcObsUpCnt > 0 {
		gUp = b.pcObsUpSum / float64(b.pcObsUpCnt)
	}
	best, bestScore := -1, math.Inf(-1)
	for _, j := range cands {
		f := r.x[j] - math.Floor(r.x[j])
		dd, du := gDown, gUp
		if b.pcDownCnt[j] > 0 {
			dd = b.pcDownSum[j] / float64(b.pcDownCnt[j])
		}
		if b.pcUpCnt[j] > 0 {
			du = b.pcUpSum[j] / float64(b.pcUpCnt[j])
		}
		// The fractionality term keeps selection sane when every observed
		// gain is zero (common on degenerate placement LPs): the product
		// then ties near 1e-18 for all candidates and the 1e-12-weighted
		// term decides, reproducing most-fractional branching. With any
		// real pseudocost signal it is negligible.
		score := float64(math.Max(dd*f, 1e-9)*math.Max(du*(1-f), 1e-9)) + float64(1e-12*f*(1-f))
		if score > bestScore {
			bestScore, best = score, j
		}
	}
	return best
}

// reliabilityInit strong-branches the node's least-reliable candidates
// (fewest pseudocost observations), seeding their tables with real
// dual-simplex objective gains. Runs on the sequential-phase solver
// only; every trial is bounded by sbIterCap and the global budget.
func (b *bnb) reliabilityInit(it *workItem, r *nodeResult, cands []int) {
	if r.snap == nil || b.sbSolver == nil || b.sbEvalsLeft <= 0 {
		return
	}
	need := make([]int, 0, len(cands))
	for _, j := range cands {
		cnt := b.pcDownCnt[j]
		if b.pcUpCnt[j] < cnt {
			cnt = b.pcUpCnt[j]
		}
		if cnt < relK {
			need = append(need, j)
		}
	}
	if len(need) == 0 {
		return
	}
	// Most fractional first; exact-tie order falls back to the variable
	// index, so the trial sequence is deterministic.
	sort.Slice(need, func(a, c int) bool {
		fa := r.x[need[a]] - math.Floor(r.x[need[a]])
		fc := r.x[need[c]] - math.Floor(r.x[need[c]])
		da, dc := math.Min(fa, 1-fa), math.Min(fc, 1-fc)
		//lint:exactfloat deterministic sort key: any exact-tie order is fine, but it must not depend on tolerance
		if da != dc {
			return da > dc
		}
		return need[a] < need[c]
	})
	if len(need) > sbMaxPerNode {
		need = need[:sbMaxPerNode]
	}
	for _, j := range need {
		if b.sbEvalsLeft <= 0 {
			return
		}
		f := r.x[j] - math.Floor(r.x[j])
		itersBefore := b.stats.SimplexIters
		downObj := b.sbTrial(it, r, j, false)
		upObj := b.sbTrial(it, r, j, true)
		if f > 1e-9 && !math.IsInf(downObj, 1) {
			b.recordPseudocost(j, false, math.Max(downObj-r.raw, 0)/f)
		}
		if 1-f > 1e-9 && !math.IsInf(upObj, 1) {
			b.recordPseudocost(j, true, math.Max(upObj-r.raw, 0)/(1-f))
		}
		if b.sink != nil {
			b.emit(obs.Event{Kind: obs.KindPseudocostInit, Node: it.id, BranchVar: j,
				Frac: math.Min(f, 1-f), Iters: b.stats.SimplexIters - itersBefore, Gap: -1})
		}
	}
}

// sbTrial estimates one branching direction's objective by a capped
// dual-simplex reoptimization from the node's snapshot. Returns +Inf
// when the child is proven infeasible, or the node objective when the
// trial cannot run (no usable snapshot, numerics) — a neutral estimate.
func (b *bnb) sbTrial(it *workItem, r *nodeResult, j int, up bool) float64 {
	s := b.sbSolver
	copy(b.sbLo, it.lo)
	copy(b.sbHi, it.hi)
	fl := math.Floor(r.x[j])
	if up {
		b.sbLo[j] = fl + 1
	} else {
		b.sbHi[j] = fl
	}
	trial := &workItem{lo: b.sbLo, hi: b.sbHi, state: r.state, raw: r.raw,
		snap: r.snap, branchVar: j, branchUp: up}
	startIters, startRef := s.iters, s.refactors
	obj := r.raw
	if s.installSnapshot(trial) {
		st, err := s.dualSimplex(sbIterCap)
		switch {
		case err != nil:
			// Numerics: keep the neutral estimate.
		case st == lpInfeasible:
			obj = math.Inf(1)
		default:
			// Optimal, stalled, or deadline: any dual-feasible basis bounds
			// the child objective from below — a usable gain estimate.
			obj = s.structuralObjective()
		}
	}
	b.stats.SimplexIters += s.iters - startIters
	b.stats.LURefactors += s.refactors - startRef
	b.stats.StrongBranchEvals++
	b.sbEvalsLeft--
	return obj
}

// recordPseudocost folds one observed per-unit objective gain into the
// per-variable table and the global prior.
func (b *bnb) recordPseudocost(j int, up bool, perUnit float64) {
	if up {
		b.pcUpSum[j] += perUnit
		b.pcUpCnt[j]++
		b.pcObsUpSum += perUnit
		b.pcObsUpCnt++
		return
	}
	b.pcDownSum[j] += perUnit
	b.pcDownCnt[j]++
	b.pcObsDownSum += perUnit
	b.pcObsDownCnt++
}

// finish assembles the final solution from a canonical (integer-rounded)
// incumbent vector, recording the stop reason and the final proof state
// (BestBound/Gap) in the stats.
func (b *bnb) finish(x []float64, obj float64, proven bool) (Solution, error) {
	vals := append([]float64(nil), x...)
	status := Feasible
	if proven {
		status = Optimal
	}
	b.stats.StopReason = b.stopReason()
	b.stats.BestBound, b.stats.Gap = b.bestBoundAndGap(obj, proven)
	if b.haveRoot {
		rg := (obj - b.rootBound) / math.Max(math.Abs(obj), 1e-9)
		if rg < 0 {
			rg = 0
		}
		b.stats.RootGap = rg
	}
	if b.sink != nil {
		b.emit(obs.Event{Kind: obs.KindDone, Node: b.stats.BnBNodes, Outcome: status.String(),
			Reason: b.stats.StopReason.String(), Iters: b.stats.SimplexIters,
			Refactors: b.stats.LURefactors, BranchVar: -1,
			Incumbent: obj, BestBound: b.stats.BestBound, Gap: b.stats.Gap})
	}
	return Solution{Status: status, Objective: obj, Values: vals, Stats: b.stats}, nil
}

// VerifySolution checks that values satisfy every constraint and bound of
// the model within tolerance; it returns a descriptive error otherwise.
// Used by tests and by callers that want a safety net.
func VerifySolution(m *Model, values []float64) error {
	if len(values) != len(m.vars) {
		return fmt.Errorf("ilp: got %d values for %d variables", len(values), len(m.vars))
	}
	for j, v := range m.vars {
		x := values[j]
		if x < v.lo-1e-6 || x > v.hi+1e-6 {
			return fmt.Errorf("ilp: variable %d (%s) = %g outside [%g, %g]", j, v.name, x, v.lo, v.hi)
		}
		if v.integer && math.Abs(x-math.Round(x)) > 1e-6 {
			return fmt.Errorf("ilp: variable %d (%s) = %g not integral", j, v.name, x)
		}
	}
	for ci, c := range m.cons {
		act := 0.0
		for _, t := range c.Terms {
			act += float64(t.Coef * values[t.Var])
		}
		ok := true
		switch c.Op {
		case LE:
			ok = act <= c.RHS+1e-6
		case GE:
			ok = act >= c.RHS-1e-6
		case EQ:
			ok = math.Abs(act-c.RHS) <= 1e-6
		}
		if !ok {
			return fmt.Errorf("ilp: constraint %d (%s): activity %g %v %g violated", ci, c.Name, act, c.Op, c.RHS)
		}
	}
	return nil
}
