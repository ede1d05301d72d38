package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"rulefit/internal/core"
	"rulefit/internal/invariant"
	"rulefit/internal/policy"
)

// Delta ops. A delta edits a fully explicit Problem (ExplicitOnly)
// copy-on-write: it replaces the slices it changes and never writes
// into one, so the stateful session layer applies deltas to a shallow
// copy and commits only on success, and a failed op never corrupts a
// session.
const (
	// OpAddRule appends Rule to the policy at Ingress. The priority
	// must be unused within that policy.
	OpAddRule = "add_rule"
	// OpRemoveRule removes the rule with Priority from the policy at
	// Ingress. Removing the last rule is an error (a policy must keep
	// at least one rule).
	OpRemoveRule = "remove_rule"
	// OpUpdatePolicy replaces the whole rule list of the policy at
	// Ingress with Rules (at least one).
	OpUpdatePolicy = "update_policy"
	// OpSetCapacity sets the TCAM capacity of Switch to Capacity.
	OpSetCapacity = "set_capacity"
	// OpSetPaths replaces every routing path for Ingress with Paths
	// (at least one, each declaring the same ingress).
	OpSetPaths = "set_paths"
	// OpAddSwitch adds switch Switch with Capacity to the topology.
	OpAddSwitch = "add_switch"
	// OpRemoveSwitch removes switch Switch and its links. The switch
	// must not host a port and no path may traverse it.
	OpRemoveSwitch = "remove_switch"
	// OpAddLink adds the undirected Link between two existing switches.
	OpAddLink = "add_link"
	// OpRemoveLink removes the undirected Link.
	OpRemoveLink = "remove_link"
)

// Delta is one mutation of a placement instance, the wire form the
// daemon's POST /v1/session/{id}/delta endpoint accepts. Which fields
// are read depends on Op (see the op constants).
type Delta struct {
	Op       string  `json:"op"`
	Ingress  int     `json:"ingress,omitempty"`
	Rule     *Rule   `json:"rule,omitempty"`
	Priority int     `json:"priority,omitempty"`
	Rules    []Rule  `json:"rules,omitempty"`
	Switch   int     `json:"switch,omitempty"`
	Capacity int     `json:"capacity,omitempty"`
	Paths    []Path  `json:"paths,omitempty"`
	Link     *[2]int `json:"link,omitempty"`
}

// String renders a short human tag for logs and error messages.
func (d Delta) String() string {
	switch d.Op {
	case OpAddRule, OpRemoveRule, OpUpdatePolicy, OpSetPaths:
		return fmt.Sprintf("%s(ingress=%d)", d.Op, d.Ingress)
	case OpSetCapacity, OpAddSwitch, OpRemoveSwitch:
		return fmt.Sprintf("%s(switch=%d)", d.Op, d.Switch)
	case OpAddLink, OpRemoveLink:
		if d.Link != nil {
			return fmt.Sprintf("%s(%d,%d)", d.Op, d.Link[0], d.Link[1])
		}
		return d.Op
	default:
		return fmt.Sprintf("delta(%q)", d.Op)
	}
}

// ExplicitOnly reports whether the problem is in fully explicit form:
// explicit topology, verbatim paths, and concrete rules with no
// generators. Deltas only apply to explicit problems — FromCore
// normalizes any built instance into this form.
func (p *Problem) ExplicitOnly() error {
	if p.Topology.Type != "explicit" {
		return fmt.Errorf("spec: delta target needs explicit topology, have %q", p.Topology.Type)
	}
	if len(p.Routing.Paths) == 0 {
		return fmt.Errorf("spec: delta target needs explicit routing paths")
	}
	for i, pol := range p.Policies {
		if pol.Generate != nil {
			return fmt.Errorf("spec: delta target policy %d uses a generator", i)
		}
	}
	return nil
}

// Apply edits p by one delta. On error p may be partially checked but
// is never partially edited: all validation happens before the first
// write. Apply writes only p's own fields and slices it allocates
// itself, never an element of a slice p holds, so applying to a
// shallow copy q := *p leaves p unchanged; callers holding
// authoritative state apply to such a copy and swap on success.
func (p *Problem) Apply(d Delta) error {
	if err := p.ExplicitOnly(); err != nil {
		return err
	}
	switch d.Op {
	case OpAddRule:
		return p.applyAddRule(d)
	case OpRemoveRule:
		return p.applyRemoveRule(d)
	case OpUpdatePolicy:
		return p.applyUpdatePolicy(d)
	case OpSetCapacity:
		return p.applySetCapacity(d)
	case OpSetPaths:
		return p.applySetPaths(d)
	case OpAddSwitch:
		return p.applyAddSwitch(d)
	case OpRemoveSwitch:
		return p.applyRemoveSwitch(d)
	case OpAddLink:
		return p.applyLink(d, true)
	case OpRemoveLink:
		return p.applyLink(d, false)
	default:
		return fmt.Errorf("spec: unknown delta op %q", d.Op)
	}
}

// ApplyAll applies a delta sequence in order, stopping at the first
// failure (index and cause in the error).
func (p *Problem) ApplyAll(deltas []Delta) error {
	for i, d := range deltas {
		if err := p.Apply(d); err != nil {
			return fmt.Errorf("delta %d %s: %w", i, d, err)
		}
	}
	return nil
}

// policyIndex finds the policy for an ingress.
func (p *Problem) policyIndex(ingress int) (int, error) {
	for i := range p.Policies {
		if p.Policies[i].Ingress == ingress {
			return i, nil
		}
	}
	return 0, fmt.Errorf("spec: no policy for ingress %d", ingress)
}

// checkRule validates a rule's pattern/action without mutating state.
func checkRule(r Rule) error {
	_, err := r.build()
	return err
}

func (p *Problem) applyAddRule(d Delta) error {
	if d.Rule == nil {
		return fmt.Errorf("spec: %s needs a rule", OpAddRule)
	}
	pi, err := p.policyIndex(d.Ingress)
	if err != nil {
		return err
	}
	if err := checkRule(*d.Rule); err != nil {
		return err
	}
	for _, r := range p.Policies[pi].Rules {
		if r.Priority == d.Rule.Priority {
			return fmt.Errorf("spec: ingress %d already has a rule at priority %d", d.Ingress, d.Rule.Priority)
		}
	}
	rules := p.Policies[pi].Rules
	p.setRules(pi, append(rules[:len(rules):len(rules)], *d.Rule))
	return nil
}

func (p *Problem) applyRemoveRule(d Delta) error {
	pi, err := p.policyIndex(d.Ingress)
	if err != nil {
		return err
	}
	rules := p.Policies[pi].Rules
	for i, r := range rules {
		if r.Priority == d.Priority {
			if len(rules) == 1 {
				return fmt.Errorf("spec: removing priority %d would empty ingress %d's policy", d.Priority, d.Ingress)
			}
			p.setRules(pi, append(rules[:i:i], rules[i+1:]...))
			return nil
		}
	}
	return fmt.Errorf("spec: ingress %d has no rule at priority %d", d.Ingress, d.Priority)
}

func (p *Problem) applyUpdatePolicy(d Delta) error {
	pi, err := p.policyIndex(d.Ingress)
	if err != nil {
		return err
	}
	if len(d.Rules) == 0 {
		return fmt.Errorf("spec: %s needs at least one rule", OpUpdatePolicy)
	}
	seen := make(map[int]bool, len(d.Rules))
	for _, r := range d.Rules {
		if err := checkRule(r); err != nil {
			return err
		}
		if seen[r.Priority] {
			return fmt.Errorf("spec: duplicate priority %d in %s", r.Priority, OpUpdatePolicy)
		}
		seen[r.Priority] = true
	}
	p.setRules(pi, append([]Rule(nil), d.Rules...))
	return nil
}

// setRules replaces policy pi's rules in a copy of the policy list.
func (p *Problem) setRules(pi int, rules []Rule) {
	p.Policies = slices.Clone(p.Policies)
	p.Policies[pi].Rules = rules
}

func (p *Problem) switchIndex(id int) (int, error) {
	for i := range p.Topology.SwitchList {
		if p.Topology.SwitchList[i].ID == id {
			return i, nil
		}
	}
	return 0, fmt.Errorf("spec: no switch %d", id)
}

func (p *Problem) applySetCapacity(d Delta) error {
	si, err := p.switchIndex(d.Switch)
	if err != nil {
		return err
	}
	if d.Capacity < 1 {
		return fmt.Errorf("spec: capacity must be >= 1, got %d", d.Capacity)
	}
	p.Topology.SwitchList = slices.Clone(p.Topology.SwitchList)
	p.Topology.SwitchList[si].Capacity = d.Capacity
	return nil
}

func (p *Problem) applySetPaths(d Delta) error {
	if len(d.Paths) == 0 {
		return fmt.Errorf("spec: %s needs at least one path", OpSetPaths)
	}
	switches := make(map[int]bool, len(p.Topology.SwitchList))
	for _, sw := range p.Topology.SwitchList {
		switches[sw.ID] = true
	}
	for i, path := range d.Paths {
		if path.Ingress != d.Ingress {
			return fmt.Errorf("spec: %s path %d declares ingress %d, want %d", OpSetPaths, i, path.Ingress, d.Ingress)
		}
		if len(path.Switches) == 0 {
			return fmt.Errorf("spec: %s path %d is empty", OpSetPaths, i)
		}
		for _, s := range path.Switches {
			if !switches[s] {
				return fmt.Errorf("spec: %s path %d traverses unknown switch %d", OpSetPaths, i, s)
			}
		}
	}
	kept := p.Routing.Paths[:0:0]
	for _, path := range p.Routing.Paths {
		if path.Ingress != d.Ingress {
			kept = append(kept, path)
		}
	}
	p.Routing.Paths = append(kept, d.Paths...)
	return nil
}

func (p *Problem) applyAddSwitch(d Delta) error {
	if _, err := p.switchIndex(d.Switch); err == nil {
		return fmt.Errorf("spec: switch %d already exists", d.Switch)
	}
	if d.Capacity < 1 {
		return fmt.Errorf("spec: capacity must be >= 1, got %d", d.Capacity)
	}
	sl := p.Topology.SwitchList
	p.Topology.SwitchList = append(sl[:len(sl):len(sl)], Switch{ID: d.Switch, Capacity: d.Capacity})
	return nil
}

func (p *Problem) applyRemoveSwitch(d Delta) error {
	si, err := p.switchIndex(d.Switch)
	if err != nil {
		return err
	}
	for _, pt := range p.Topology.Ports {
		if pt.Switch == d.Switch {
			return fmt.Errorf("spec: switch %d hosts port %d", d.Switch, pt.ID)
		}
	}
	for i, path := range p.Routing.Paths {
		for _, s := range path.Switches {
			if s == d.Switch {
				return fmt.Errorf("spec: path %d traverses switch %d", i, d.Switch)
			}
		}
	}
	sl := p.Topology.SwitchList
	p.Topology.SwitchList = append(sl[:si:si], sl[si+1:]...)
	kept := p.Topology.Links[:0:0]
	for _, l := range p.Topology.Links {
		if l[0] != d.Switch && l[1] != d.Switch {
			kept = append(kept, l)
		}
	}
	p.Topology.Links = kept
	return nil
}

func (p *Problem) applyLink(d Delta, add bool) error {
	if d.Link == nil {
		return fmt.Errorf("spec: %s needs a link", d.Op)
	}
	a, b := d.Link[0], d.Link[1]
	if a == b {
		return fmt.Errorf("spec: link %d-%d is a self-loop", a, b)
	}
	have := -1
	for i, l := range p.Topology.Links {
		if (l[0] == a && l[1] == b) || (l[0] == b && l[1] == a) {
			have = i
			break
		}
	}
	if add {
		for _, id := range []int{a, b} {
			if _, err := p.switchIndex(id); err != nil {
				return err
			}
		}
		if have >= 0 {
			return fmt.Errorf("spec: link %d-%d already exists", a, b)
		}
		ls := p.Topology.Links
		p.Topology.Links = append(ls[:len(ls):len(ls)], [2]int{a, b})
		return nil
	}
	if have < 0 {
		return fmt.Errorf("spec: no link %d-%d", a, b)
	}
	ls := p.Topology.Links
	p.Topology.Links = append(ls[:have:have], ls[have+1:]...)
	return nil
}

// Clone returns a deep copy of p: every slice reachable from it, and
// the Generate pointee, is copied. Nil stays nil and empty stays empty
// (policies and a path's switches render them as null and []), so the
// clone's Canonical bytes equal p's.
func (p *Problem) Clone() *Problem {
	out := *p
	out.Topology.SwitchList = slices.Clone(p.Topology.SwitchList)
	out.Topology.Links = slices.Clone(p.Topology.Links)
	out.Topology.Ports = slices.Clone(p.Topology.Ports)
	out.Routing.Pairs = slices.Clone(p.Routing.Pairs)
	out.Routing.Paths = slices.Clone(p.Routing.Paths)
	for i := range out.Routing.Paths {
		out.Routing.Paths[i].Switches = slices.Clone(out.Routing.Paths[i].Switches)
	}
	out.Policies = slices.Clone(p.Policies)
	for i := range out.Policies {
		pol := &out.Policies[i]
		pol.Rules = slices.Clone(pol.Rules)
		if pol.Generate != nil {
			gen := *pol.Generate
			pol.Generate = &gen
		}
	}
	out.Monitors = slices.Clone(p.Monitors)
	if invariant.Enabled {
		invariant.Assert(bytes.Equal(out.Canonical(), p.Canonical()), "spec: clone renders differently from its source")
	}
	return &out
}

// Canonical returns the problem's canonical JSON bytes: struct field
// order is fixed, so equal problems render identical bytes. The
// session layer keys its solved-placement memo by these bytes.
func (p *Problem) Canonical() []byte {
	data, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("spec: canonical marshal: %v", err))
	}
	return data
}

// FromCore flattens a built core problem into fully explicit spec
// form: explicit switch list, links, ports, verbatim paths (with
// traffic patterns), and pattern-string rules. The round trip through
// Build is exact because ternary String/ParseTernary are inverses.
func FromCore(p *core.Problem) *Problem {
	out := &Problem{}
	out.Topology.Type = "explicit"
	for _, sw := range p.Network.Switches() {
		out.Topology.SwitchList = append(out.Topology.SwitchList, Switch{
			ID: int(sw.ID), Capacity: sw.Capacity, Name: sw.Name,
		})
	}
	for _, sw := range p.Network.Switches() {
		for _, nb := range p.Network.Neighbors(sw.ID) {
			if nb > sw.ID {
				out.Topology.Links = append(out.Topology.Links, [2]int{int(sw.ID), int(nb)})
			}
		}
	}
	for _, pt := range p.Network.Ports() {
		out.Topology.Ports = append(out.Topology.Ports, Port{
			ID: int(pt.ID), Switch: int(pt.Switch), Ingress: pt.Ingress, Egress: pt.Egress,
		})
	}
	for _, ing := range p.Routing.Ingresses() {
		for _, path := range p.Routing.Sets[ing].Paths {
			sp := Path{Ingress: int(path.Ingress), Egress: int(path.Egress)}
			for _, s := range path.Switches {
				sp.Switches = append(sp.Switches, int(s))
			}
			if path.HasTraffic {
				sp.Traffic = path.Traffic.String()
			}
			out.Routing.Paths = append(out.Routing.Paths, sp)
		}
	}
	for _, pol := range p.Policies {
		sp := Policy{Ingress: pol.Ingress}
		for _, r := range pol.Rules {
			action := "permit"
			if r.Action == policy.Drop {
				action = "drop"
			}
			sp.Rules = append(sp.Rules, Rule{
				Pattern: r.Match.String(), Action: action, Priority: r.Priority,
			})
		}
		out.Policies = append(out.Policies, sp)
	}
	return out
}
