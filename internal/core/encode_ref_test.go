package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"

	"rulefit/internal/deps"
	"rulefit/internal/obs"
	"rulefit/internal/policy"
	"rulefit/internal/routing"
	"rulefit/internal/topology"
)

// This file keeps, as the reference the slab encoder must match, the
// map-based encoder that buildEncoding replaced: it interns every
// variable in a map keyed by the whole evar and lists each rule's
// variables in a second map. The code below the helpers' line is that
// encoder verbatim but for names: the type is refEncoding (it keeps
// the index and byRule maps the encoding no longer has), the function
// buildEncodingRef, and the sort helpers carry a ref prefix.
// TestEncodingMatchesReference and FuzzEncodeMatchesReference compare
// encodingReport's rendering of the two encoders.

// refCertify is certify over the reference: the counting bound is the
// number of byRule entries.
func refCertify(e *refEncoding) (*Placement, bool) {
	pl := greedy(e.shared())
	if pl.Status != StatusFeasible || pl.TotalRules != len(e.byRule) {
		return nil, false
	}
	pl.Status = StatusOptimal
	pl.Stats.BestBound = pl.Objective
	pl.Stats.SolvePath = SolveCertified
	return pl, true
}

// refViolation is encodingViolation over the reference, looking each
// placed rule up in the index map.
func refViolation(e *refEncoding, pl *Placement) string {
	on := make([]bool, len(e.vars))
	for pi := range pl.Assign {
		for ri, sws := range pl.Assign[pi] {
			for _, sw := range sws {
				id, ok := e.index[evar{kind: varRule, pol: pi, rule: ri, sw: sw}]
				if !ok {
					return fmt.Sprintf("p%d/r%d placed at switch %d without a variable", pi, ri, sw)
				}
				on[id] = true
			}
		}
	}
	for _, cover := range e.covers {
		if !slices.ContainsFunc(cover, func(id int) bool { return on[id] }) {
			return fmt.Sprintf("cover %v unmet", cover)
		}
	}
	for _, imp := range e.imps {
		if on[imp[0]] && !on[imp[1]] {
			return fmt.Sprintf("implication v%d -> v%d unmet", imp[0], imp[1])
		}
	}
	for _, row := range e.capRows {
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

// shared carries the reference's tables over into an encoding, for
// the code both encoders feed: the greedy pass and the ILP model. The
// traffic weights go over whatever the objective, so the model reads
// the reference's.
func (e *refEncoding) shared() *encoding {
	return &encoding{
		prob: e.prob, opts: e.opts,
		policies: e.policies, graphs: e.graphs,
		vars: e.vars, imps: e.imps, covers: e.covers, merges: e.merges, capRows: e.capRows,
		groups: e.groups, dummies: e.dummies,
		infeasibleReason: e.infeasibleReason,
		trafficWeight:    e.trafficWeight,
	}
}

// encodingReport renders everything an encoder derives for (prob,
// opts): the error, or the variables and every table with its size,
// the merge groups and dummies, the objective weights, the ILP model's
// LP bytes, the greedy pass with the first encoding row it breaks, and
// in the decomposed regime the certificate's answer. With ref set the
// reference encoder runs instead of buildEncoding; the two reports
// must be equal.
func encodingReport(prob *Problem, opts Options, ref bool) string {
	opts = opts.withDefaults()
	var (
		enc       *encoding
		err       error
		placed    int
		weights   func() []int64
		violation func(*Placement) string
		cert      func() (*Placement, bool)
	)
	if ref {
		var r *refEncoding
		if r, err = buildEncodingRef(prob, opts, nil); err == nil {
			enc, placed, weights = r.shared(), len(r.byRule), r.objectiveWeights
			violation = func(pl *Placement) string { return refViolation(r, pl) }
			cert = func() (*Placement, bool) { return refCertify(r) }
		}
	} else if enc, err = buildEncoding(prob, opts, nil); err == nil {
		placed, weights = enc.placedRules, enc.objectiveWeights
		violation = func(pl *Placement) string { return encodingViolation(enc, pl) }
		cert = func() (*Placement, bool) { return certify(enc) }
	}
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "infeasible: %q\n", enc.infeasibleReason)
	fmt.Fprintf(&b, "vars %d, placed rules %d, imps %d, covers %d, merges %d, cap rows %d, constraints %d\n",
		len(enc.vars), placed, len(enc.imps), len(enc.covers), len(enc.merges), len(enc.capRows), enc.numConstraints())
	fmt.Fprintf(&b, "vars: %v\nimps: %v\ncovers: %v\nmerges: %v\ncap rows: %v\n", enc.vars, enc.imps, enc.covers, enc.merges, enc.capRows)
	fmt.Fprintf(&b, "groups: %v\ndummies: %v\n", enc.groups, enc.dummies)
	if enc.infeasibleReason != "" {
		return b.String()
	}
	fmt.Fprintf(&b, "weights: %v\n", weights())
	m, _, _ := buildILPModel(enc, opts)
	var lp bytes.Buffer
	if err := m.WriteLP(&lp); err != nil {
		return "write LP: " + err.Error()
	}
	b.Write(lp.Bytes())
	g := greedy(enc)
	fmt.Fprintf(&b, "greedy %v %d %v: violation %q\n", g.Status, g.TotalRules, g.Assign, violation(g))
	// The certificate runs only in the decomposed regime, where
	// rulefitdebug asserts that a certified placement meets its encoding.
	if opts.Objective != ObjTotalRules || opts.Merging || len(opts.Monitors) > 0 {
		return b.String()
	}
	if pl, ok := cert(); ok {
		fmt.Fprintf(&b, "certified %v %d %g %g %v\n", pl.Status, pl.TotalRules, pl.Objective, pl.Stats.BestBound, pl.Assign)
	} else {
		b.WriteString("not certified\n")
	}
	return b.String()
}

// The reference encoder.

// refEncoding is the reference encoder's constraint system.
type refEncoding struct {
	prob *Problem
	opts Options

	policies []*policy.Policy // after optional redundancy removal
	graphs   []*deps.Graph

	vars    []evar
	index   map[evar]int
	byRule  map[[2]int][]int // (pol, rule) -> var ids
	imps    [][2]int         // [w, u]: v_w -> v_u (Eq. 1 / Eq. 6)
	covers  [][]int          // at-least-one over var ids (Eq. 2 / Eq. 7)
	merges  []mergeCons
	capRows []capRow

	groups  []deps.MergeGroup
	dummies []deps.DummyRule

	// infeasibleReason is set when the encoding itself proves the
	// instance unsatisfiable (e.g. a monitor forbids every candidate
	// switch of some DROP rule on some path).
	infeasibleReason string

	// trafficWeight[v] is loc(s_k, P_i) + 1 for rule vars (>= 1 so that
	// placing fewer rules still helps) and the merged adjustment for
	// merged vars; used by ObjTraffic.
	trafficWeight []int64
}

// buildEncodingRef assembles the constraint system for a validated problem.
// span (nil-safe) gets one child per pipeline stage.
func buildEncodingRef(prob *Problem, opts Options, span *obs.Span) (*refEncoding, error) {
	e := &refEncoding{
		prob:   prob,
		opts:   opts,
		index:  make(map[evar]int),
		byRule: make(map[[2]int][]int),
	}

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
	// variables wherever one of their drops might go.
	varSp := span.Child("variables")
	for pi, pol := range e.policies {
		ps := prob.Routing.Sets[topology.PortID(pol.Ingress)]
		g := e.graphs[pi]
		permitSwitches := make(map[int]map[topology.SwitchID]bool)
		for _, w := range g.Drops() {
			candidates := e.relevantSwitches(pol.Rules[w], ps)
			for sw := range e.monitorForbidden(pol.Rules[w], ps) {
				delete(candidates, sw)
			}
			sws := refSortedSwitches(candidates)
			for _, sw := range sws {
				e.addVar(evar{kind: varRule, pol: pi, rule: w, sw: sw})
			}
			for _, u := range g.Dependents(w) {
				m, ok := permitSwitches[u]
				if !ok {
					m = make(map[topology.SwitchID]bool)
					permitSwitches[u] = m
				}
				for _, sw := range sws {
					m[sw] = true
				}
			}
		}
		permits := make([]int, 0, len(permitSwitches))
		for u := range permitSwitches {
			permits = append(permits, u)
		}
		sort.Ints(permits)
		for _, u := range permits {
			for _, sw := range refSortedSwitches(permitSwitches[u]) {
				e.addVar(evar{kind: varRule, pol: pi, rule: u, sw: sw})
			}
		}
	}
	varSp.SetCount("vars", int64(len(e.vars)))
	varSp.End()

	// Stage 4: rule dependency constraints (Eq. 1).
	consSp := span.Child("constraints")
	for pi, g := range e.graphs {
		for _, w := range g.Drops() {
			for _, u := range g.Dependents(w) {
				for _, sw := range e.switchesOf(pi, w) {
					vw := e.index[evar{kind: varRule, pol: pi, rule: w, sw: sw}]
					vu, ok := e.index[evar{kind: varRule, pol: pi, rule: u, sw: sw}]
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
	for pi, g := range e.graphs {
		pol := e.policies[pi]
		ps := prob.Routing.Sets[topology.PortID(pol.Ingress)]
		for _, w := range g.Drops() {
			for _, path := range ps.Paths {
				if !e.pathRelevant(pol.Rules[w], path) {
					continue
				}
				var cover []int
				for _, sw := range path.Switches {
					if id, ok := e.index[evar{kind: varRule, pol: pi, rule: w, sw: sw}]; ok {
						cover = append(cover, id)
					}
				}
				if len(cover) == 0 {
					consSp.End()
					if len(opts.Monitors) > 0 {
						e.infeasibleReason = fmt.Sprintf("drop rule p%d/r%d has no monitor-compatible switch on path %v", pi, w, path)
						return e, nil
					}
					return nil, fmt.Errorf("core: drop rule p%d/r%d has no candidate switch on path %v", pi, w, path)
				}
				e.covers = append(e.covers, cover)
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

	// Traffic weights for ObjTraffic: rule variables first, then the
	// merged adjustments (which reference the rule weights).
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

// addVar interns a variable, returning its id.
func (e *refEncoding) addVar(v evar) int {
	if id, ok := e.index[v]; ok {
		return id
	}
	id := len(e.vars)
	e.vars = append(e.vars, v)
	e.index[v] = id
	if v.kind == varRule {
		key := [2]int{v.pol, v.rule}
		e.byRule[key] = append(e.byRule[key], id)
	}
	return id
}

// switchesOf lists the switches where rule ri of policy pi has variables.
func (e *refEncoding) switchesOf(pi, ri int) []topology.SwitchID {
	ids := e.byRule[[2]int{pi, ri}]
	out := make([]topology.SwitchID, 0, len(ids))
	for _, id := range ids {
		out = append(out, e.vars[id].sw)
	}
	return out
}

// monitorForbidden returns the switches where the DROP rule r may not
// be installed: positions strictly upstream of a monitor (whose match
// overlaps r) on any relevant path that reaches the monitoring switch.
// Dropping r there would hide monitored packets from the monitor (§VII).
func (e *refEncoding) monitorForbidden(r policy.Rule, ps *routing.PathSet) map[topology.SwitchID]bool {
	out := make(map[topology.SwitchID]bool)
	for _, mon := range e.opts.Monitors {
		if !mon.Match.Overlaps(r.Match) {
			continue
		}
		for _, path := range ps.Paths {
			if !e.pathRelevant(r, path) {
				continue
			}
			mpos := path.Loc(mon.Switch)
			if mpos < 0 {
				continue
			}
			for _, sw := range path.Switches[:mpos] {
				out[sw] = true
			}
		}
	}
	return out
}

// pathRelevant reports whether a rule applies to a path's traffic slice.
func (e *refEncoding) pathRelevant(r policy.Rule, path routing.Path) bool {
	if !e.opts.PathSlicing || !path.HasTraffic {
		return true
	}
	return r.Match.Overlaps(path.Traffic)
}

// relevantSwitches returns the union of switches over the rule's
// relevant paths.
func (e *refEncoding) relevantSwitches(r policy.Rule, ps *routing.PathSet) map[topology.SwitchID]bool {
	out := make(map[topology.SwitchID]bool)
	for _, path := range ps.Paths {
		if !e.pathRelevant(r, path) {
			continue
		}
		for _, sw := range path.Switches {
			out[sw] = true
		}
	}
	return out
}

// buildMerging detects mergeable rules among placed rules, breaks
// circular dependencies, and creates merged variables and constraints.
func (e *refEncoding) buildMerging() error {
	// Only rules that have variables can merge: restrict the group
	// search to placed rules by masking others out.
	placedMask := make([]map[int]bool, len(e.policies))
	for _, v := range e.vars {
		if v.kind != varRule {
			continue
		}
		if placedMask[v.pol] == nil {
			placedMask[v.pol] = make(map[int]bool)
		}
		placedMask[v.pol][v.rule] = true
	}
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
	var filtered []deps.MergeGroup
	for _, g := range raw {
		var members []deps.RuleRef
		for _, m := range g.Members {
			if placedMask[m.Policy] != nil && placedMask[m.Policy][m.Rule] {
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

	for gi, g := range groups {
		// For each switch where >= 2 members have variables, a merged
		// variable v^m with mv = AND(member vars).
		bySwitch := make(map[topology.SwitchID][]int)
		for _, m := range g.Members {
			for _, id := range e.byRule[[2]int{m.Policy, m.Rule}] {
				bySwitch[e.vars[id].sw] = append(bySwitch[e.vars[id].sw], id)
			}
		}
		for _, sw := range refSortedSwitchKeys(bySwitch) {
			members := bySwitch[sw]
			if len(members) < 2 {
				continue
			}
			mv := e.addVar(evar{kind: varMerged, group: gi, sw: sw})
			e.merges = append(e.merges, mergeCons{mv: mv, members: members})
		}
	}
	return nil
}

// buildCapacities assembles one capacity row per switch that hosts any
// variable.
func (e *refEncoding) buildCapacities() {
	ruleVarsAt := make(map[topology.SwitchID][]int)
	mergedAt := make(map[topology.SwitchID][]mergeTerm)
	for id, v := range e.vars {
		if v.kind == varRule {
			ruleVarsAt[v.sw] = append(ruleVarsAt[v.sw], id)
		}
	}
	for _, mc := range e.merges {
		sw := e.vars[mc.mv].sw
		mergedAt[sw] = append(mergedAt[sw], mergeTerm{mv: mc.mv, savings: len(mc.members) - 1})
	}
	for _, sw := range e.prob.Network.Switches() {
		rv := ruleVarsAt[sw.ID]
		mt := mergedAt[sw.ID]
		if len(rv) == 0 && len(mt) == 0 {
			continue
		}
		e.capRows = append(e.capRows, capRow{sw: sw.ID, ruleVars: rv, merged: mt, cap: sw.Capacity})
	}
}

// objectiveWeights returns the per-variable objective coefficients for
// the configured objective. Rule variables get positive weights; merged
// variables get the negative savings adjustment.
func (e *refEncoding) objectiveWeights() []int64 {
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
func (e *refEncoding) numConstraints() int {
	return len(e.imps) + len(e.covers) + len(e.capRows) + 2*len(e.merges)
}

// refSortedSwitches returns a set's members in ascending ID order, keeping
// variable creation (and hence both backends' search) deterministic.
func refSortedSwitches(set map[topology.SwitchID]bool) []topology.SwitchID {
	out := make([]topology.SwitchID, 0, len(set))
	for sw := range set {
		out = append(out, sw)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// refSortedSwitchKeys sorts the keys of a per-switch map.
func refSortedSwitchKeys[V any](m map[topology.SwitchID]V) []topology.SwitchID {
	out := make([]topology.SwitchID, 0, len(m))
	for sw := range m {
		out = append(out, sw)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
