package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"rulefit/internal/obs"
	"rulefit/internal/policy"
	"rulefit/internal/topology"
)

// Deterministic per-policy decomposition. With merging off and the
// total-rules objective, the joint MILP couples policies only through
// the switch capacity rows: variables, dependency constraints (Eq. 1),
// and coverage constraints (Eq. 2) all live inside a single policy.
// Solving each policy alone against the full capacities yields a valid
// lower bound — the joint optimum restricted to policy i is feasible
// for i's subproblem, so sum_i opt_i <= opt_joint — and if the stitched
// per-policy optima together respect every switch capacity, the stitch
// attains that bound and is provably optimal for the joint instance.
//
// The decomposition is part of Place's deterministic contract, not an
// opportunistic shortcut: whether it applies (decomposable) and whether
// the stitch is accepted (capacity check) are pure functions of the
// (problem, options) pair, so cold solves and the stateful delta path
// produce byte-identical placements. That determinism is what lets the
// session layer (internal/state) cache per-policy fragments in a
// SolutionCache: a single-rule delta re-solves one subproblem and
// serves the rest from cache, with the exact bytes a from-scratch
// decomposed solve would produce — solver-effort stats included.
//
// Note on time limits: each subproblem inherits the full
// Options.TimeLimit (a shared wall-clock budget would make the
// cache-hit pattern observable in the answer, breaking byte identity),
// so a decomposed solve can take up to len(Policies) times the limit
// in the worst case. Any subproblem that fails to prove optimality
// falls back to the joint solve.

// decomposable reports whether the instance/options pair qualifies for
// per-policy decomposition. Merging couples policies through shared
// merged variables, ObjMinMaxLoad through the z variable, and other
// objectives are excluded conservatively; monitors are excluded to
// keep the encode-proven-infeasible path on the joint solver.
func decomposable(prob *Problem, opts Options) bool {
	return opts.Backend == BackendILP &&
		opts.Objective == ObjTotalRules &&
		!opts.Merging &&
		!opts.SatisfyOnly &&
		len(opts.Monitors) == 0 &&
		len(prob.Policies) >= 2
}

// placeDecomposed tries the per-policy decomposition. ok=false means
// the caller must fall back to the joint solve (a subproblem did not
// prove optimality, a sub-encode failed, or the stitched optima
// violate a shared capacity); the decision is deterministic.
func placeDecomposed(prob *Problem, opts Options, span *obs.Span) (pl *Placement, ok bool, err error) {
	dSp := span.Child("decompose")
	defer dSp.End()
	start := time.Now()
	cache := opts.SolutionCache
	frags := make([]*Placement, len(prob.Policies))
	for i, pol := range prob.Policies {
		var key string
		if cache != nil {
			key = subSolutionKey(prob, pol, opts)
			if frag, hit := cache.lookup(key); hit {
				frags[i] = frag
				continue
			}
		}
		frag, err := solveSub(prob, pol, opts, dSp)
		if err != nil {
			// The joint encode reproduces the condition with the
			// canonical (whole-instance) error message.
			return nil, false, nil
		}
		if frag.Status != StatusOptimal {
			return nil, false, nil
		}
		if cache != nil {
			cache.store(key, frag)
		}
		frags[i] = frag
	}

	// Stitch acceptance: the independent optima must jointly respect
	// every switch capacity (no merging, so each slot counts 1).
	usage := make(map[topology.SwitchID]int)
	for _, frag := range frags {
		for ri := range frag.Assign[0] {
			for _, sw := range frag.Assign[0][ri] {
				usage[sw]++
			}
		}
	}
	for _, sw := range prob.Network.Switches() {
		if usage[sw.ID] > sw.Capacity {
			dSp.SetCount("stitch_rejected", 1)
			return nil, false, nil
		}
	}

	pl = stitch(frags, opts)
	pl.Stats.SolveTime = time.Since(start)
	dSp.SetCount("fragments", int64(len(frags)))
	return pl, true, nil
}

// solveSub solves one policy's subproblem: the full network and
// routing, one policy. Per-policy encode artifacts still flow through
// opts.EncodeCache; the observational solver sink is inherited.
func solveSub(prob *Problem, pol *policy.Policy, opts Options, span *obs.Span) (*Placement, error) {
	sub := &Problem{Network: prob.Network, Routing: prob.Routing, Policies: []*policy.Policy{pol}}
	subSp := span.Child("sub_solve")
	defer subSp.End()
	enc, err := encodeTraced(sub, opts, subSp)
	if err != nil {
		return nil, err
	}
	pl, err := solveILP(enc, opts, subSp)
	if err != nil {
		return nil, err
	}
	pl.Stats.Backend = opts.Backend
	pl.Stats.Variables = len(enc.vars)
	pl.Stats.Constraints = enc.numConstraints()
	return pl, nil
}

// stitch concatenates per-policy fragments into the joint placement.
// Every field the wire projection (daemon.EncodePlacement) carries is
// a deterministic aggregate of fragment state, so a cache-served
// fragment is indistinguishable from a fresh sub-solve.
func stitch(frags []*Placement, opts Options) *Placement {
	pl := &Placement{
		Status:   StatusOptimal,
		Policies: make([]*policy.Policy, len(frags)),
		Assign:   make([][][]topology.SwitchID, len(frags)),
		MergedAt: make([][]topology.SwitchID, 0),
	}
	for i, frag := range frags {
		pl.Policies[i] = frag.Policies[0]
		pl.Assign[i] = frag.Assign[0]
		pl.TotalRules += frag.TotalRules
		pl.Objective += frag.Objective
		s, f := &pl.Stats, frag.Stats
		s.Variables += f.Variables
		s.Constraints += f.Constraints
		// Every ilp.Stats counter needs a rule here; TestStitchStats
		// fails on one without.
		s.BnBNodes += f.BnBNodes
		s.SimplexIters += f.SimplexIters
		s.LURefactors += f.LURefactors
		s.Branched += f.Branched
		s.PrunedBound += f.PrunedBound
		s.PrunedInfeasible += f.PrunedInfeasible
		s.IntegralLeaves += f.IntegralLeaves
		s.LostSubtrees += f.LostSubtrees
		s.PrunedStale += f.PrunedStale
		s.Incumbents += f.Incumbents
		s.StrongBranchEvals += f.StrongBranchEvals
		s.WarmStartReuses += f.WarmStartReuses
		s.PresolveFix += f.PresolveFix
		s.BestBound += f.BestBound
		if f.Workers > s.Workers {
			s.Workers = f.Workers
		}
		// Per-fragment trees are independent; report the hardest one.
		if f.LastIncumbentAtNode > s.LastIncumbentAtNode {
			s.LastIncumbentAtNode = f.LastIncumbentAtNode
		}
		if f.RootGap > s.RootGap {
			s.RootGap = f.RootGap
		}
	}
	pl.Stats.Backend = opts.Backend
	pl.Stats.Gap = 0
	return pl
}

// subSolutionKey renders everything a subproblem's solve can observe:
// the solve options, the policy (content + ingress + default), its
// path set (switch sequences and traffic slices), and the capacities
// of every switch on those paths. Switches off the policy's paths
// cannot host its variables, so they are not part of the key. Full
// renderings (not hashes) make collisions impossible.
func subSolutionKey(prob *Problem, pol *policy.Policy, opts Options) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "o=%d b=%d rr=%t ps=%t dp=%t w=%d tl=%d\x00",
		opts.Objective, opts.Backend, opts.RemoveRedundant, opts.PathSlicing,
		opts.DisablePresolve, opts.Workers, int64(opts.TimeLimit))
	sb.WriteString(pol.String())
	sb.WriteByte(0)
	ps := prob.Routing.Sets[topology.PortID(pol.Ingress)]
	for _, p := range ps.Paths {
		fmt.Fprintf(&sb, "path %d->%d %v", p.Ingress, p.Egress, p.Switches)
		if p.HasTraffic {
			fmt.Fprintf(&sb, " traffic=%s", p.Traffic)
		}
		sb.WriteByte('\n')
	}
	sb.WriteByte(0)
	for _, id := range ps.Switches() {
		if sw, ok := prob.Network.Switch(id); ok {
			fmt.Fprintf(&sb, "s%d=%d ", id, sw.Capacity)
		}
	}
	return sb.String()
}

// SolutionCache memoizes per-policy placement fragments produced by
// the decomposed solve path, keyed by a full canonical rendering of
// the subproblem. The stateful session layer (internal/state) attaches
// one per session so a small delta re-solves only the subproblems it
// actually changed. A cache hit is indistinguishable from a fresh
// sub-solve: fragments are stored and served as deep copies, and they
// carry the deterministic solver-effort stats of the original solve.
type SolutionCache struct {
	mu      sync.Mutex
	entries map[string]*Placement
	order   []string

	hits, misses int64
}

// maxSolutionEntries bounds a cache to roughly one entry per live
// policy plus churn; the oldest entries are evicted first.
const maxSolutionEntries = 512

// NewSolutionCache returns an empty fragment cache.
func NewSolutionCache() *SolutionCache {
	return &SolutionCache{entries: make(map[string]*Placement)}
}

// SolutionCacheStats is a point-in-time snapshot of the hit counters.
type SolutionCacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Stats snapshots the cumulative hit/miss counters.
func (c *SolutionCache) Stats() SolutionCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SolutionCacheStats{Hits: c.hits, Misses: c.misses}
}

// lookup serves a deep copy of the cached fragment, or reports a miss.
func (c *SolutionCache) lookup(key string) (*Placement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	frag, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	return cloneFragment(frag), true
}

// store records a freshly solved fragment (deep-copied, so the served
// placement cannot alias cache-owned memory).
func (c *SolutionCache) store(key string, frag *Placement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	if len(c.order) >= maxSolutionEntries {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[key] = cloneFragment(frag)
	c.order = append(c.order, key)
}

// cloneFragment deep-copies a single-policy fragment placement. The
// wall-clock SolveTime is zeroed: fragment times are an artifact of
// when the fragment was first solved, and the stitcher re-stamps the
// whole decomposed solve's wall time.
func cloneFragment(frag *Placement) *Placement {
	out := &Placement{
		Status:     frag.Status,
		TotalRules: frag.TotalRules,
		Objective:  frag.Objective,
		Policies:   []*policy.Policy{frag.Policies[0].Clone()},
		Assign:     make([][][]topology.SwitchID, 1),
		MergedAt:   make([][]topology.SwitchID, 0),
		Stats:      frag.Stats,
	}
	out.Stats.SolveTime = 0
	out.Assign[0] = make([][]topology.SwitchID, len(frag.Assign[0]))
	for ri, sws := range frag.Assign[0] {
		out.Assign[0][ri] = append([]topology.SwitchID(nil), sws...)
	}
	return out
}
