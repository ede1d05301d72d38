package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"rulefit/internal/invariant"
	"rulefit/internal/lru"
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
// SolutionCache: a single-rule delta re-certifies one subproblem and
// serves the rest from cache, with the exact bytes a from-scratch
// decomposed solve would produce.
//
// Certified fragments: in this regime every rule that has a variable
// must be installed at least once — a DROP by its Eq. 2 cover rows, a
// PERMIT by the Eq. 1 rows of the DROP that needs it — so a sub-
// problem's optimum is at least enc.placedRules. When the greedy
// ingress-first pass places each such rule exactly once it meets that
// bound, and its placement is returned as the proven optimum without
// building the sub-MILP (certify). The certificate is a pure function
// of the sub-problem's encoding, so it keeps the determinism above.
// The first policy it cannot prove ends the decomposition and Place
// answers with the joint MILP, so an answer runs at most one ilp.Solve.

// decomposable reports whether the instance/options pair qualifies for
// per-policy decomposition. Merging couples policies through shared
// merged variables, ObjMinMaxLoad through the z variable, and other
// objectives are excluded conservatively; monitors are excluded to
// keep the encode-proven-infeasible path on the joint solver.
// Single-policy instances stay on the joint MILP, so the answer among
// their tied optima does not move.
func decomposable(prob *Problem, opts Options) bool {
	return opts.Backend == BackendILP &&
		opts.Objective == ObjTotalRules &&
		!opts.Merging &&
		!opts.SatisfyOnly &&
		len(opts.Monitors) == 0 &&
		len(prob.Policies) >= 2
}

// placeDecomposed tries the per-policy decomposition. ok=false means
// the caller must fall back to the joint solve: a policy's sub-problem
// failed its encode or the certificate (the span's "uncertified"
// counter), or the stitched optima violate a shared capacity
// ("stitch_rejected"). The decision is deterministic.
func placeDecomposed(prob *Problem, opts Options, span *obs.Span) (pl *Placement, ok bool) {
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
		frag, ok := certifySub(prob, pol, opts, dSp)
		if !ok {
			dSp.SetCount("uncertified", 1)
			return nil, false
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
			return nil, false
		}
	}

	pl = stitch(frags, opts)
	pl.Stats.SolveTime = time.Since(start)
	dSp.SetCount("fragments", int64(len(frags)))
	return pl, true
}

// certifySub encodes one policy's subproblem (the full network and
// routing, one policy) and runs the counting certificate on it.
// ok=false means the encode failed or the certificate did not fire;
// the joint encode reproduces an encode error with the canonical
// (whole-instance) message. Per-policy encode artifacts still flow
// through opts.EncodeCache.
func certifySub(prob *Problem, pol *policy.Policy, opts Options, span *obs.Span) (*Placement, bool) {
	sub := &Problem{Network: prob.Network, Routing: prob.Routing, Policies: []*policy.Policy{pol}}
	subSp := span.Child("sub_solve")
	defer subSp.End()
	enc, err := encodeTraced(sub, opts, subSp)
	if err != nil {
		return nil, false
	}
	pl, ok := certify(enc)
	if !ok {
		return nil, false
	}
	pl.Stats.Variables = len(enc.vars)
	pl.Stats.Constraints = enc.numConstraints()
	return pl, true
}

// certify runs the greedy pass on a sub-problem's encoding and returns
// its placement as a proven optimum when it meets the counting bound:
// greedy is feasible and installs each of the enc.placedRules rules
// that have a variable exactly once. The fragment reports status
// optimal, gap 0, BestBound = total, and no nodes, iterations or
// workers.
func certify(enc *encoding) (*Placement, bool) {
	pl := greedy(enc)
	if pl.Status != StatusFeasible || pl.TotalRules != enc.placedRules {
		return nil, false
	}
	if invariant.Enabled {
		v := encodingViolation(enc, pl)
		invariant.Assert(v == "", "core: certified greedy placement breaks its encoding: %s", v)
	}
	pl.Status = StatusOptimal
	pl.Stats.BestBound = pl.Objective
	pl.Stats.SolvePath = SolveCertified
	return pl, true
}

// encodingViolation names the first variable, cover, implication or
// capacity row of a merging-free encoding that a placement breaks, or
// returns "" when the placement meets them all.
func encodingViolation(enc *encoding, pl *Placement) string {
	on := make([]bool, len(enc.vars))
	for pi := range pl.Assign {
		for ri, sws := range pl.Assign[pi] {
			for _, sw := range sws {
				id, ok := enc.lookup(pi, ri, sw)
				if !ok {
					return fmt.Sprintf("p%d/r%d placed at switch %d without a variable", pi, ri, sw)
				}
				on[id] = true
			}
		}
	}
	for _, cover := range enc.covers {
		if !slices.ContainsFunc(cover, func(id int) bool { return on[id] }) {
			return fmt.Sprintf("cover %v unmet", cover)
		}
	}
	for _, imp := range enc.imps {
		if on[imp[0]] && !on[imp[1]] {
			return fmt.Sprintf("implication v%d -> v%d unmet", imp[0], imp[1])
		}
	}
	for _, row := range enc.capRows {
		used := 0
		for _, id := range row.ruleVars {
			if on[id] {
				used++
			}
		}
		if used > row.cap {
			return fmt.Sprintf("switch %d holds %d rules, capacity %d", row.sw, used, row.cap)
		}
	}
	return ""
}

// stitch concatenates certified per-policy fragments into the joint
// placement. Every fragment is a proven optimum that ran no solver, so
// the stitch carries no solver counters: it sums the totals and the
// encoding sizes, and its bound is its objective.
func stitch(frags []*Placement, opts Options) *Placement {
	pl := &Placement{
		Status:   StatusOptimal,
		Policies: make([]*policy.Policy, len(frags)),
		Assign:   make([][][]topology.SwitchID, len(frags)),
		MergedAt: make([][]topology.SwitchID, 0),
		Stats:    Stats{Backend: opts.Backend, SolvePath: SolveCertified},
	}
	for i, frag := range frags {
		pl.Policies[i] = frag.Policies[0]
		pl.Assign[i] = frag.Assign[0]
		pl.TotalRules += frag.TotalRules
		pl.Objective += frag.Objective
		pl.Stats.Variables += frag.Stats.Variables
		pl.Stats.Constraints += frag.Stats.Constraints
	}
	pl.Stats.BestBound = pl.Objective
	return pl
}

// subSolutionKey renders everything a certified fragment depends on:
// the encode options it reads (RemoveRedundant, PathSlicing), the
// policy (content + ingress + default), its path set (switch sequences
// and traffic slices), and the capacities of every switch on those
// paths. decomposable pins the objective and backend, and greedy reads
// no solver option. Switches off the policy's paths cannot host its
// variables, so they are not part of the key. Every variable-length
// part is length-prefixed, so the key is a full injective rendering
// (not a hash) and collisions are impossible.
func subSolutionKey(prob *Problem, pol *policy.Policy, opts Options) string {
	var b []byte
	for _, v := range [...]int64{boolKey(opts.RemoveRedundant), boolKey(opts.PathSlicing)} {
		b = binary.AppendVarint(b, v)
	}
	b = pol.AppendKey(b)
	ps := prob.Routing.Sets[topology.PortID(pol.Ingress)]
	b = binary.AppendUvarint(b, uint64(len(ps.Paths)))
	for _, p := range ps.Paths {
		b = binary.AppendVarint(b, int64(p.Ingress))
		b = binary.AppendVarint(b, int64(p.Egress))
		b = binary.AppendUvarint(b, uint64(len(p.Switches)))
		for _, sw := range p.Switches {
			b = binary.AppendVarint(b, int64(sw))
		}
		b = binary.AppendVarint(b, boolKey(p.HasTraffic))
		if p.HasTraffic {
			b = p.Traffic.AppendKey(b)
		}
	}
	// Place has validated the problem, so every path switch exists.
	sws := ps.Switches()
	b = binary.AppendUvarint(b, uint64(len(sws)))
	for _, id := range sws {
		sw, _ := prob.Network.Switch(id)
		b = binary.AppendVarint(b, int64(id))
		b = binary.AppendVarint(b, int64(sw.Capacity))
	}
	return string(b)
}

// boolKey renders a flag as a key varint.
func boolKey(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// SolutionCache memoizes the certified per-policy placement fragments
// of the decomposed solve path, keyed by a full canonical rendering of
// the subproblem. The stateful session layer (internal/state) attaches
// one per session so a small delta re-certifies only the subproblems
// it actually changed. A cache hit is indistinguishable from a fresh
// certification: fragments are stored and served as copies that share
// only their policy, read-only, and they carry the encoding sizes of
// the original one.
type SolutionCache struct {
	mu      sync.Mutex
	entries *lru.Cache[cachedFragment]

	hits, misses int64
}

// cachedFragment is one stored fragment; polKey is sharedKey of its
// policy as stored.
type cachedFragment struct {
	frag   *Placement
	polKey string
}

// NewSolutionCache returns an empty fragment cache sized, like
// EncodeCache, to versionsPerPolicy fragments per policy of instances
// with the given policy count.
func NewSolutionCache(policies int) *SolutionCache {
	return &SolutionCache{entries: lru.New[cachedFragment](versionsPerPolicy * max(policies, 1))}
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

// Len counts the cached fragments.
func (c *SolutionCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}

// lookup serves a copy of the cached fragment, or reports a miss.
func (c *SolutionCache) lookup(key string) (*Placement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.entries.Get(key)
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	assertShared(ent.frag.Policies[0], ent.polKey)
	return cloneFragment(ent.frag), true
}

// store records a copy of a freshly certified fragment, so the served
// placement's assignment cannot alias cache-owned memory.
func (c *SolutionCache) store(key string, frag *Placement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.Put(key, cachedFragment{frag: cloneFragment(frag), polKey: sharedKey(frag.Policies[0])})
}

// cloneFragment copies a single-policy fragment placement. Its
// assignment is deep-copied and its policy shared, since built
// policies are never mutated. The wall-clock SolveTime is zeroed:
// fragment times are an artifact of when the fragment was first
// solved, and the stitcher re-stamps the whole decomposed solve's wall
// time.
func cloneFragment(frag *Placement) *Placement {
	out := &Placement{
		Status:     frag.Status,
		TotalRules: frag.TotalRules,
		Objective:  frag.Objective,
		Policies:   []*policy.Policy{frag.Policies[0]},
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
