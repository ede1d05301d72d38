package core

import (
	"fmt"
	"sort"

	"rulefit/internal/dataplane"
	"rulefit/internal/topology"
)

// pendEntry is a table entry awaiting priority assignment: the dataplane
// entry plus, for every member policy, the rule index it represents
// there (one policy for plain entries, several for merged entries).
type pendEntry struct {
	entry   dataplane.Entry
	ruleIdx map[int]int // policy index -> rule index
}

// BuildTables compiles a placement into per-switch TCAM tables with
// ingress tags (§IV-A5). Within one switch, entries are ordered so that
// every member policy's priority order is respected for overlapping
// rules with differing actions; rules from different policies are
// otherwise free to interleave because their tag spaces are disjoint.
// Merged rules become a single entry tagged with all member ingresses.
func (pl *Placement) BuildTables(prob *Problem) (*dataplane.Network, error) {
	if pl.Status != StatusOptimal && pl.Status != StatusFeasible {
		return nil, fmt.Errorf("core: cannot build tables from a %v placement", pl.Status)
	}
	net := dataplane.NewNetwork()

	// mergedCover[(pi, ri)][sw] marks rules emitted as merged entries.
	mergedCover := make(map[[2]int]map[topology.SwitchID]bool)
	for g, sws := range pl.MergedAt {
		for _, m := range pl.Groups[g].Members {
			key := [2]int{m.Policy, m.Rule}
			if mergedCover[key] == nil {
				mergedCover[key] = make(map[topology.SwitchID]bool)
			}
			for _, sw := range sws {
				mergedCover[key][sw] = true
			}
		}
	}

	bySwitch := make(map[topology.SwitchID][]pendEntry)
	for pi, pol := range pl.Policies {
		in := topology.PortID(pol.Ingress)
		for ri, sws := range pl.Assign[pi] {
			for _, sw := range sws {
				if mergedCover[[2]int{pi, ri}][sw] {
					continue // emitted as a merged entry below
				}
				r := pol.Rules[ri]
				bySwitch[sw] = append(bySwitch[sw], pendEntry{
					entry: dataplane.Entry{
						Tags:   map[topology.PortID]bool{in: true},
						Match:  r.Match,
						Action: r.Action,
					},
					ruleIdx: map[int]int{pi: ri},
				})
			}
		}
	}
	for g, sws := range pl.MergedAt {
		grp := pl.Groups[g]
		for _, sw := range sws {
			tags := make(map[topology.PortID]bool, len(grp.Members))
			ruleIdx := make(map[int]int, len(grp.Members))
			var e dataplane.Entry
			for i, m := range grp.Members {
				tags[topology.PortID(pl.Policies[m.Policy].Ingress)] = true
				ruleIdx[m.Policy] = m.Rule
				if i == 0 {
					e.Match = pl.Policies[m.Policy].Rules[m.Rule].Match
					e.Action = grp.Action
				}
			}
			e.Tags = tags
			e.Merged = true
			bySwitch[sw] = append(bySwitch[sw], pendEntry{entry: e, ruleIdx: ruleIdx})
		}
	}

	for _, sw := range sortedSwitchKeys(bySwitch) {
		pends := bySwitch[sw]
		order, err := orderEntries(pends)
		if err != nil {
			return nil, fmt.Errorf("core: switch %d: %w", sw, err)
		}
		table := net.Table(sw)
		prio := len(order)
		for _, idx := range order {
			e := pends[idx].entry
			e.Priority = prio
			prio--
			table.Add(e)
		}
	}
	return net, nil
}

// orderEntries topologically sorts the entries of one switch: entry a
// must precede entry b when some policy contains rules of both, the
// matches overlap, the actions differ, and a's rule has the higher
// priority (lower index) in that policy. Circular requirements indicate
// a merging bug (BreakCycles should have prevented them).
func orderEntries(pends []pendEntry) ([]int, error) {
	n := len(pends)
	succ := make([][]int, n)
	indeg := make([]int, n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b || pends[a].entry.Action == pends[b].entry.Action {
				continue
			}
			if !pends[a].entry.Match.Overlaps(pends[b].entry.Match) {
				continue
			}
			// a -> b iff in some shared policy a's rule is above b's.
			mustPrecede := false
			for pi, ra := range pends[a].ruleIdx {
				if rb, ok := pends[b].ruleIdx[pi]; ok && ra < rb {
					mustPrecede = true
					break
				}
			}
			if mustPrecede {
				succ[a] = append(succ[a], b)
				indeg[b]++
			}
		}
	}
	// Kahn's algorithm with deterministic tie-breaking: among ready
	// entries prefer the one whose minimum rule index is smallest, so
	// tables read naturally in policy order.
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	rank := func(i int) int {
		best := 1 << 30
		for _, ri := range pends[i].ruleIdx {
			if ri < best {
				best = ri
			}
		}
		return best
	}
	var order []int
	for len(ready) > 0 {
		sort.Slice(ready, func(x, y int) bool {
			rx, ry := rank(ready[x]), rank(ready[y])
			if rx != ry {
				return rx < ry
			}
			return ready[x] < ready[y]
		})
		cur := ready[0]
		ready = ready[1:]
		order = append(order, cur)
		for _, next := range succ[cur] {
			indeg[next]--
			if indeg[next] == 0 {
				ready = append(ready, next)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("circular priority requirement among %d entries", n)
	}
	return order, nil
}

// sortedSwitchKeys sorts the keys of a per-switch map.
func sortedSwitchKeys[V any](m map[topology.SwitchID]V) []topology.SwitchID {
	out := make([]topology.SwitchID, 0, len(m))
	for sw := range m {
		out = append(out, sw)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
