package core

import (
	"fmt"
	"slices"
	"sort"

	"rulefit/internal/policy"
	"rulefit/internal/routing"
	"rulefit/internal/topology"
)

// Incremental deployment (§IV-E): instead of re-solving the whole
// network on every change, small updates use a greedy heuristic and
// medium updates solve a sub-problem over spare capacity, leaving all
// existing placements untouched.

// SpareCapacities returns each switch's remaining rule budget after a
// placement: C_k minus the TCAM slots the placement uses there.
func SpareCapacities(prob *Problem, pl *Placement) map[topology.SwitchID]int {
	spare := make(map[topology.SwitchID]int, prob.Network.NumSwitches())
	for _, sw := range prob.Network.Switches() {
		spare[sw.ID] = sw.Capacity
	}
	for pi := range pl.Assign {
		for ri := range pl.Assign[pi] {
			for _, sw := range pl.Assign[pi][ri] {
				spare[sw]--
			}
		}
	}
	for g, sws := range pl.MergedAt {
		for _, sw := range sws {
			spare[sw] += pl.membersAt(g, sw) - 1
		}
	}
	return spare
}

// networkWithCapacities clones the topology with per-switch capacities
// replaced by the given map (missing switches keep their capacity).
func networkWithCapacities(topo *topology.Network, caps map[topology.SwitchID]int) *topology.Network {
	c := topo.Clone()
	for id, v := range caps {
		if v < 0 {
			v = 0
		}
		//lint:errcheck caps keys come from this topology, so unknown-switch cannot happen
		_ = c.SetSwitchCapacity(id, v)
	}
	return c
}

// IncrementalAdd places new ingress policies into the spare capacity of
// an existing placement (ingress policy installation, §IV-E). The
// existing placement is not modified; the returned placement covers only
// the new policies and can be compiled and merged into the deployed
// tables. Routing for the new ingresses must be present in newRouting.
func IncrementalAdd(prob *Problem, existing *Placement, newPolicies []*policy.Policy, newRouting *routing.Routing, opts Options) (*Placement, error) {
	spare := SpareCapacities(prob, existing)
	sub := &Problem{
		Network:  networkWithCapacities(prob.Network, spare),
		Routing:  newRouting,
		Policies: newPolicies,
	}
	// Default to the paper's fast mode: find a satisfying placement.
	if !opts.SatisfyOnly && opts.Objective == 0 {
		opts.SatisfyOnly = true
	}
	return Place(sub, opts)
}

// IncrementalReroute re-places a single policy after its routing changed
// (routing policy change, §IV-E). All other policies' placements are
// fixed; the target policy's rules are lifted (restoring its slots) and
// re-placed against the new paths.
func IncrementalReroute(prob *Problem, existing *Placement, ingress int, newPaths *routing.PathSet, opts Options) (*Placement, error) {
	target := -1
	for pi, pol := range existing.Policies {
		if pol.Ingress == ingress {
			target = pi
			break
		}
	}
	if target < 0 {
		return nil, fmt.Errorf("core: no existing policy for ingress %d", ingress)
	}
	spare := SpareCapacities(prob, existing)
	// Restore the target policy's own slots.
	for ri := range existing.Assign[target] {
		for _, sw := range existing.Assign[target][ri] {
			spare[sw]++
		}
	}
	// A merged slot the target shares stays taken while another member
	// still occupies it. A group holds at most one rule per policy.
	for g, sws := range existing.MergedAt {
		for _, m := range existing.Groups[g].Members {
			if m.Policy != target {
				continue
			}
			for _, sw := range sws {
				if slices.Contains(existing.Assign[target][m.Rule], sw) && existing.membersAt(g, sw) > 1 {
					spare[sw]--
				}
			}
		}
	}
	rt := routing.NewRouting()
	rt.Sets[topology.PortID(ingress)] = newPaths
	sub := &Problem{
		Network:  networkWithCapacities(prob.Network, spare),
		Routing:  rt,
		Policies: []*policy.Policy{existing.Policies[target]},
	}
	if !opts.SatisfyOnly && opts.Objective == 0 {
		opts.SatisfyOnly = true
	}
	return Place(sub, opts)
}

// GreedyPlace is the small-update heuristic (and the "greedy
// ingress-first" baseline): each DROP rule, with its dependent PERMIT
// rules, is placed on the earliest switch of each path with enough spare
// capacity. It returns a placement or StatusInfeasible; it never proves
// infeasibility of the underlying problem (the exact solvers do that).
func GreedyPlace(prob *Problem, opts Options) (*Placement, error) {
	opts = opts.withDefaults()
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	enc, err := buildEncoding(prob, opts, nil)
	if err != nil {
		return nil, err
	}
	spare := make(map[topology.SwitchID]int, prob.Network.NumSwitches())
	for _, sw := range prob.Network.Switches() {
		spare[sw.ID] = sw.Capacity
	}

	pl := &Placement{Policies: enc.policies, Groups: nil}
	pl.Assign = make([][][]topology.SwitchID, len(enc.policies))
	for pi, pol := range enc.policies {
		pl.Assign[pi] = make([][]topology.SwitchID, len(pol.Rules))
	}
	placedAt := make(map[[2]int]map[topology.SwitchID]bool) // (pi,ri) -> switches
	has := func(pi, ri int, sw topology.SwitchID) bool {
		m := placedAt[[2]int{pi, ri}]
		return m != nil && m[sw]
	}
	put := func(pi, ri int, sw topology.SwitchID) {
		key := [2]int{pi, ri}
		if placedAt[key] == nil {
			placedAt[key] = make(map[topology.SwitchID]bool)
		}
		placedAt[key][sw] = true
		pl.Assign[pi][ri] = append(pl.Assign[pi][ri], sw)
		spare[sw]--
		pl.TotalRules++
	}

	for pi, pol := range enc.policies {
		ps := prob.Routing.Sets[topology.PortID(pol.Ingress)]
		g := enc.graphs[pi]
		for _, w := range g.Drops() {
			for _, path := range ps.Paths {
				if !enc.pathRelevant(pol.Rules[w], path) {
					continue
				}
				// Already satisfied on this path?
				done := false
				for _, sw := range path.Switches {
					if has(pi, w, sw) {
						done = true
						break
					}
				}
				if done {
					continue
				}
				placed := false
				for _, sw := range path.Switches {
					need := 1
					var missingPermits []int
					for _, u := range g.Dependents(w) {
						if !has(pi, u, sw) {
							need++
							missingPermits = append(missingPermits, u)
						}
					}
					if spare[sw] < need {
						continue
					}
					put(pi, w, sw)
					for _, u := range missingPermits {
						put(pi, u, sw)
					}
					placed = true
					break
				}
				if !placed {
					pl.Status = StatusInfeasible
					return pl, nil
				}
			}
		}
	}
	pl.Status = StatusFeasible
	pl.Objective = float64(pl.TotalRules)
	sortAssign(pl)
	return pl, nil
}

// sortAssign normalizes switch lists for deterministic output.
func sortAssign(pl *Placement) {
	for pi := range pl.Assign {
		for ri := range pl.Assign[pi] {
			sws := pl.Assign[pi][ri]
			sort.Slice(sws, func(a, b int) bool { return sws[a] < sws[b] })
		}
	}
}
