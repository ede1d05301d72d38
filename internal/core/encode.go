package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"rulefit/internal/deps"
	"rulefit/internal/obs"
	"rulefit/internal/policy"
	"rulefit/internal/routing"
	"rulefit/internal/topology"
)

// The encoding is a backend-neutral intermediate representation of the
// paper's constraint system. Both the ILP and SAT backends are generated
// from it, which keeps the two formulations provably aligned and makes
// backend ablations meaningful.

// varKind distinguishes placement variables from merged-rule variables.
type varKind int8

const (
	varRule   varKind = iota + 1 // v_{i,j,k}: rule j of policy i on switch k
	varMerged                    // v^m_{g,k}: merge group g installed at switch k
)

// evar is one 0/1 decision variable.
type evar struct {
	kind  varKind
	pol   int // policy index (varRule)
	rule  int // rule index (varRule)
	group int // group index (varMerged)
	sw    topology.SwitchID
}

// mergeCons ties a merged variable to its member rule variables:
// mv = AND(members) (Eqs. 4–5 / Eq. 8).
type mergeCons struct {
	mv      int
	members []int
}

// capRow is one switch capacity constraint: sum of rule vars at the
// switch, with each merged var contributing -(M-1), must be <= cap.
type capRow struct {
	sw       topology.SwitchID
	ruleVars []int
	merged   []mergeTerm
	cap      int
}

// mergeTerm is a merged variable's contribution to a capacity row or the
// objective: coefficient -(members-1).
type mergeTerm struct {
	mv      int
	savings int // members-1 (>= 1)
}

// encoding is the assembled constraint system.
//
// Variables are numbered in creation order: policy by policy, each
// DROP rule's variables (in Drops order), then the variables of the
// PERMIT rules those DROP rules depend on (ascending rule index), and
// after every rule variable the merged ones. A rule's variables are
// created together, in ascending switch order, so they are one run of
// ids: spans[pi][ri] holds where rule ri of policy pi's run starts and
// how long it is, and a variable is found by its (policy, rule, switch)
// position with a binary search of that short run (lookup), never by
// hashing the variable. Covers are cut from one slab of ids, and the
// capacity rows' rule variables from another.
type encoding struct {
	prob *Problem
	opts Options

	policies []*policy.Policy // after optional redundancy removal
	graphs   []*deps.Graph

	vars        []evar
	spans       [][]varSpan // [pol][rule] -> the rule's run of var ids
	placedRules int         // rules with at least one variable
	imps        [][2]int    // [w, u]: v_w -> v_u (Eq. 1 / Eq. 6)
	covers      [][]int     // at-least-one over var ids (Eq. 2 / Eq. 7)
	merges      []mergeCons
	capRows     []capRow

	groups  []deps.MergeGroup
	dummies []deps.DummyRule

	// infeasibleReason is set when the encoding itself proves the
	// instance unsatisfiable (e.g. a monitor forbids every candidate
	// switch of some DROP rule on some path).
	infeasibleReason string

	// trafficWeight[v] is loc(s_k, P_i) + 1 for rule vars (>= 1 so that
	// placing fewer rules still helps) and the merged adjustment for
	// merged vars. Only ObjTraffic reads it, so only ObjTraffic fills it.
	trafficWeight []int64
}

// varSpan is one rule's run of variable ids: first, first+1, ...,
// first+n-1, at ascending switches.
type varSpan struct{ first, n int }

// buildEncoding assembles the constraint system for a validated problem.
// span (nil-safe) gets one child per pipeline stage.
func buildEncoding(prob *Problem, opts Options, span *obs.Span) (*encoding, error) {
	e := &encoding{prob: prob, opts: opts}

	// Stage 1 (optional): redundancy removal, per Fig. 4. With an
	// EncodeCache attached, policies whose content was analyzed before
	// serve both stage-1 and stage-2 artifacts from cache.
	cache := opts.EncodeCache
	redSp := span.Child("redundancy")
	e.policies = make([]*policy.Policy, len(prob.Policies))
	e.graphs = make([]*deps.Graph, len(prob.Policies))
	for i, pol := range prob.Policies {
		if cache != nil {
			if reduced, g, ok := cache.lookupPolicy(pol, opts.RemoveRedundant); ok {
				e.policies[i], e.graphs[i] = reduced, g
				continue
			}
		}
		if opts.RemoveRedundant {
			reduced, _ := policy.RemoveRedundant(pol)
			e.policies[i] = reduced
		} else {
			e.policies[i] = pol.Clone()
		}
	}
	redSp.End()

	// Stage 2: dependency graphs (for cache hits, already filled).
	depSp := span.Child("dep_graph")
	for i, pol := range e.policies {
		if e.graphs[i] != nil {
			continue
		}
		e.graphs[i] = deps.BuildGraph(pol)
		if cache != nil {
			cache.storePolicy(prob.Policies[i], opts.RemoveRedundant, pol, e.graphs[i])
		}
	}
	depSp.End()

	// Stage 3: variables. For each policy, DROP rules get variables on
	// the switches of their relevant paths; dependent PERMIT rules get
	// variables wherever one of their drops might go. Each rule's
	// switches are a bitmask over the positions of the policy's path-set
	// switches (sws, sorted), words w*n to (w+1)*n of sets: a drop's
	// candidates, then OR-ed into its permits' sets. Setting bits makes
	// a set and reading them in order sorts it. Counting the relevant
	// paths on the way sizes stages 4 and 5 up front, and counting the
	// bits sizes the policy's variables before any is created.
	varSp := span.Child("variables")
	e.spans = make([][]varSpan, len(e.policies))
	var sws []topology.SwitchID
	var sets []uint64
	nImps, nCovers, coverIDs := 0, 0, 0
	for pi, pol := range e.policies {
		e.spans[pi] = make([]varSpan, len(pol.Rules))
		ps := prob.Routing.Sets[topology.PortID(pol.Ingress)]
		g := e.graphs[pi]
		sws = sws[:0]
		for _, path := range ps.Paths {
			sws = append(sws, path.Switches...)
		}
		slices.Sort(sws)
		sws = slices.Compact(sws)
		n := (len(sws) + 63) / 64
		sets = slices.Grow(sets[:0], len(pol.Rules)*n)[:len(pol.Rules)*n]
		clear(sets)
		for _, w := range g.Drops() {
			set := sets[w*n : (w+1)*n]
			for _, path := range ps.Paths {
				if e.pathRelevant(pol.Rules[w], path) {
					nCovers++
					coverIDs += len(path.Switches)
					for _, sw := range path.Switches {
						i, bit := switchBit(sws, sw)
						set[i] |= bit
					}
				}
			}
			e.clearMonitorForbidden(pol.Rules[w], ps, sws, set)
			for _, u := range g.Dependents(w) {
				for i, word := range set {
					sets[u*n+i] |= word
					nImps += bits.OnesCount64(word)
				}
			}
		}
		ones := 0
		for _, word := range sets {
			ones += bits.OnesCount64(word)
		}
		e.vars = slices.Grow(e.vars, ones)
		addVars := func(r int) {
			first := len(e.vars)
			for i, word := range sets[r*n : (r+1)*n] {
				for ; word != 0; word &= word - 1 {
					sw := sws[i*64+bits.TrailingZeros64(word)]
					e.vars = append(e.vars, evar{kind: varRule, pol: pi, rule: r, sw: sw})
				}
			}
			e.spans[pi][r] = varSpan{first: first, n: len(e.vars) - first}
			if len(e.vars) > first {
				e.placedRules++
			}
		}
		for _, w := range g.Drops() {
			addVars(w)
		}
		for u, r := range pol.Rules {
			if r.Action != policy.Drop {
				addVars(u)
			}
		}
	}
	varSp.SetCount("vars", int64(len(e.vars)))
	varSp.End()

	// Stage 4: rule dependency constraints (Eq. 1).
	consSp := span.Child("constraints")
	e.imps = make([][2]int, 0, nImps)
	for pi, g := range e.graphs {
		for _, w := range g.Drops() {
			for _, u := range g.Dependents(w) {
				s := e.spans[pi][w]
				for vw := s.first; vw < s.first+s.n; vw++ {
					sw := e.vars[vw].sw
					vu, ok := e.lookup(pi, u, sw)
					if !ok {
						consSp.End()
						return nil, fmt.Errorf("core: missing permit variable p%d/r%d at switch %d", pi, u, sw)
					}
					e.imps = append(e.imps, [2]int{vw, vu})
				}
			}
		}
	}

	// Stage 5: path dependency constraints (Eq. 2, per path as the
	// paper's prose requires; Eq. 2's union form is a typo).
	e.covers = make([][]int, 0, nCovers)
	ids := make([]int, 0, coverIDs)
	for pi, g := range e.graphs {
		pol := e.policies[pi]
		ps := prob.Routing.Sets[topology.PortID(pol.Ingress)]
		for _, w := range g.Drops() {
			for _, path := range ps.Paths {
				if !e.pathRelevant(pol.Rules[w], path) {
					continue
				}
				start := len(ids)
				for _, sw := range path.Switches {
					if id, ok := e.lookup(pi, w, sw); ok {
						ids = append(ids, id)
					}
				}
				if len(ids) == start {
					consSp.End()
					if len(opts.Monitors) > 0 {
						e.infeasibleReason = fmt.Sprintf("drop rule p%d/r%d has no monitor-compatible switch on path %v", pi, w, path)
						return e, nil
					}
					return nil, fmt.Errorf("core: drop rule p%d/r%d has no candidate switch on path %v", pi, w, path)
				}
				e.covers = append(e.covers, ids[start:len(ids):len(ids)])
			}
		}
	}
	consSp.SetCount("imps", int64(len(e.imps)))
	consSp.SetCount("covers", int64(len(e.covers)))
	consSp.End()

	// Stage 6 (optional): merge groups over placed rules (§IV-B).
	if opts.Merging {
		mergeSp := span.Child("merging")
		if err := e.buildMerging(); err != nil {
			mergeSp.End()
			return nil, err
		}
		mergeSp.SetCount("groups", int64(len(e.groups)))
		mergeSp.End()
	}

	// Stage 7: capacity rows (Eq. 3).
	capSp := span.Child("capacities")
	e.buildCapacities()
	capSp.SetCount("rows", int64(len(e.capRows)))
	capSp.End()

	// Traffic weights, only for ObjTraffic: rule variables first, then
	// the merged adjustments (which reference the rule weights).
	if opts.Objective != ObjTraffic {
		return e, nil
	}
	e.trafficWeight = make([]int64, len(e.vars))
	for id, v := range e.vars {
		if v.kind != varRule {
			continue
		}
		ps := prob.Routing.Sets[topology.PortID(e.policies[v.pol].Ingress)]
		loc := ps.MinLoc(v.sw)
		if loc < 0 {
			loc = 0
		}
		e.trafficWeight[id] = int64(loc + 1)
	}
	for _, mc := range e.merges {
		// A merged installation replaces its members' costs with a
		// single conservative (maximum) cost; encoded as the negative
		// of the members' summed weights plus the max.
		var sum, maxW int64
		for _, m := range mc.members {
			w := e.trafficWeight[m]
			sum += w
			if w > maxW {
				maxW = w
			}
		}
		e.trafficWeight[mc.mv] = maxW - sum
	}
	return e, nil
}

// lookup returns the id of rule ri of policy pi's variable at switch
// sw, by a binary search of the rule's run of variables.
func (e *encoding) lookup(pi, ri int, sw topology.SwitchID) (int, bool) {
	s := e.spans[pi][ri]
	lo, hi := s.first, s.first+s.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.vars[mid].sw < sw {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < s.first+s.n && e.vars[lo].sw == sw
}

// switchBit returns the word and the bit of sw in a set over sws.
func switchBit(sws []topology.SwitchID, sw topology.SwitchID) (int, uint64) {
	k, _ := slices.BinarySearch(sws, sw)
	return k / 64, 1 << (k % 64)
}

// clearMonitorForbidden removes from the DROP rule r's set over sws
// the switches where it may not be installed: positions strictly
// upstream of a monitor (whose match overlaps r) on any relevant path
// that reaches the monitoring switch. Dropping r there would hide
// monitored packets from the monitor (§VII).
func (e *encoding) clearMonitorForbidden(r policy.Rule, ps *routing.PathSet, sws []topology.SwitchID, set []uint64) {
	for _, mon := range e.opts.Monitors {
		if !mon.Match.Overlaps(r.Match) {
			continue
		}
		for _, path := range ps.Paths {
			if mpos := path.Loc(mon.Switch); mpos >= 0 && e.pathRelevant(r, path) {
				for _, sw := range path.Switches[:mpos] {
					i, bit := switchBit(sws, sw)
					set[i] &^= bit
				}
			}
		}
	}
}

// pathRelevant reports whether a rule applies to a path's traffic slice.
func (e *encoding) pathRelevant(r policy.Rule, path routing.Path) bool {
	if !e.opts.PathSlicing || !path.HasTraffic {
		return true
	}
	return r.Match.Overlaps(path.Traffic)
}

// buildMerging detects mergeable rules among placed rules, breaks
// circular dependencies, and creates merged variables and constraints.
func (e *encoding) buildMerging() error {
	// The group search is a pure function of the (reduced) policy list;
	// with a cache attached it is served by content key. The cached
	// slice is shared read-only: the filter below builds fresh groups.
	var raw []deps.MergeGroup
	if c := e.opts.EncodeCache; c != nil {
		if cached, ok := c.lookupMerge(e.policies); ok {
			raw = cached
		} else {
			raw = deps.FindMergeable(e.policies, 2)
			c.storeMerge(e.policies, raw)
		}
	} else {
		raw = deps.FindMergeable(e.policies, 2)
	}
	// Only rules that have variables can merge.
	var filtered []deps.MergeGroup
	for _, g := range raw {
		var members []deps.RuleRef
		for _, m := range g.Members {
			if e.spans[m.Policy][m.Rule].n > 0 {
				members = append(members, m)
			}
		}
		if len(members) >= 2 {
			filtered = append(filtered, deps.MergeGroup{Members: members, Action: g.Action, MatchKey: g.MatchKey})
		}
	}
	groups, dummies := deps.BreakCycles(e.policies, filtered)
	e.groups = groups
	e.dummies = dummies

	// For each switch where >= 2 members have variables, a merged
	// variable v^m with mv = AND(member vars), its members in member
	// order: a stable sort by switch keeps that order among the ids at
	// one switch.
	var at []int
	bySwitch := func(a, b int) int { return cmp.Compare(e.vars[a].sw, e.vars[b].sw) }
	for gi, g := range groups {
		at = at[:0]
		for _, m := range g.Members {
			s := e.spans[m.Policy][m.Rule]
			for id := s.first; id < s.first+s.n; id++ {
				at = append(at, id)
			}
		}
		slices.SortStableFunc(at, bySwitch)
		for i := 0; i < len(at); {
			j := i + 1
			for j < len(at) && e.vars[at[j]].sw == e.vars[at[i]].sw {
				j++
			}
			if j-i >= 2 {
				mv := len(e.vars)
				e.vars = append(e.vars, evar{kind: varMerged, group: gi, sw: e.vars[at[i]].sw})
				e.merges = append(e.merges, mergeCons{mv: mv, members: slices.Clone(at[i:j])})
			}
			i = j
		}
	}
	return nil
}

// buildCapacities assembles one capacity row per switch that hosts any
// variable, in switch ID order. A counting sort over the network's
// switches cuts every row's rule variables, in id order, from one slab.
func (e *encoding) buildCapacities() {
	sws := e.prob.Network.Switches()
	ids := make([]topology.SwitchID, len(sws))
	for k, sw := range sws {
		ids[k] = sw.ID
	}
	pos := func(sw topology.SwitchID) int {
		k, _ := slices.BinarySearch(ids, sw)
		return k
	}
	// next[k] counts switch k's rule variables, then is where the next
	// one goes in slab, and ends as the end of the switch's run.
	next := make([]int, len(sws))
	for _, v := range e.vars {
		if v.kind == varRule {
			next[pos(v.sw)]++
		}
	}
	var mergedAt [][]mergeTerm
	if len(e.merges) > 0 {
		mergedAt = make([][]mergeTerm, len(sws))
		for _, mc := range e.merges {
			k := pos(e.vars[mc.mv].sw)
			mergedAt[k] = append(mergedAt[k], mergeTerm{mv: mc.mv, savings: len(mc.members) - 1})
		}
	}
	nRule, rows := 0, 0
	for k, n := range next {
		if n > 0 || mergedAt != nil && len(mergedAt[k]) > 0 {
			rows++
		}
		next[k], nRule = nRule, nRule+n
	}
	slab := make([]int, nRule)
	for id, v := range e.vars {
		if v.kind == varRule {
			k := pos(v.sw)
			slab[next[k]] = id
			next[k]++
		}
	}
	e.capRows = make([]capRow, 0, rows)
	lo := 0
	for k, sw := range sws {
		var row capRow
		if hi := next[k]; hi > lo {
			row.ruleVars, lo = slab[lo:hi:hi], hi
		}
		if mergedAt != nil {
			row.merged = mergedAt[k]
		}
		if len(row.ruleVars) == 0 && len(row.merged) == 0 {
			continue
		}
		row.sw, row.cap = sw.ID, sw.Capacity
		e.capRows = append(e.capRows, row)
	}
}

// objectiveWeights returns the per-variable objective coefficients for
// the configured objective. Rule variables get positive weights; merged
// variables get the negative savings adjustment.
func (e *encoding) objectiveWeights() []int64 {
	w := make([]int64, len(e.vars))
	switch e.opts.Objective {
	case ObjTraffic:
		copy(w, e.trafficWeight)
	case ObjWeightedSwitches:
		cost := func(sw topology.SwitchID) int64 {
			if c, ok := e.opts.SwitchCost[sw]; ok {
				return c
			}
			return 1
		}
		for id, v := range e.vars {
			if v.kind == varRule {
				w[id] = cost(v.sw)
			}
		}
		for _, mc := range e.merges {
			v := e.vars[mc.mv]
			w[mc.mv] = -int64(len(mc.members)-1) * cost(v.sw)
		}
	default: // ObjTotalRules (also the ObjMinMaxLoad tiebreak)
		for id, v := range e.vars {
			if v.kind == varRule {
				w[id] = 1
			}
		}
		for _, mc := range e.merges {
			w[mc.mv] = -int64(len(mc.members) - 1)
		}
	}
	return w
}

// numConstraints is the IR constraint count (for stats).
func (e *encoding) numConstraints() int {
	return len(e.imps) + len(e.covers) + len(e.capRows) + 2*len(e.merges)
}
