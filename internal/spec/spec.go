// Package spec defines the JSON interchange format the command-line
// tools use to describe placement problems: a topology (generated or
// explicit), a routing (port pairs to route, or explicit paths), and the
// ingress policies (explicit rules and/or synthetic generation).
package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"rulefit/internal/core"
	"rulefit/internal/match"
	"rulefit/internal/policy"
	"rulefit/internal/routing"
	"rulefit/internal/topology"
)

// Problem is the on-disk description of a placement instance.
type Problem struct {
	Topology Topology  `json:"topology"`
	Routing  Routing   `json:"routing"`
	Policies []Policy  `json:"policies"`
	Monitors []Monitor `json:"monitors,omitempty"`
}

// Monitor declares a packet-monitoring point (see core.Monitor): DROP
// rules overlapping the match may not be placed upstream of the switch.
type Monitor struct {
	Switch int `json:"switch"`
	// Pattern or the CIDR fields define the monitored traffic, with the
	// same syntax as Rule matches.
	Pattern string `json:"pattern,omitempty"`
	SrcCIDR string `json:"src,omitempty"`
	DstCIDR string `json:"dst,omitempty"`
}

// Topology selects a generator or an explicit switch graph.
type Topology struct {
	// Type is one of "fattree", "leafspine", "linear", "ring", "grid",
	// "random", "fig3", or "explicit".
	Type     string `json:"type"`
	K        int    `json:"k,omitempty"`
	Capacity int    `json:"capacity"`
	Hosts    int    `json:"hostsPerEdge,omitempty"`
	Leaves   int    `json:"leaves,omitempty"`
	Spines   int    `json:"spines,omitempty"`
	Switches int    `json:"switches,omitempty"`
	Width    int    `json:"width,omitempty"`
	Height   int    `json:"height,omitempty"`
	Degree   int    `json:"degree,omitempty"`
	Seed     int64  `json:"seed,omitempty"`

	// Explicit graph (Type == "explicit").
	SwitchList []Switch `json:"switchList,omitempty"`
	Links      [][2]int `json:"links,omitempty"`
	Ports      []Port   `json:"ports,omitempty"`
}

// Switch is an explicit switch declaration.
type Switch struct {
	ID       int    `json:"id"`
	Capacity int    `json:"capacity"`
	Name     string `json:"name,omitempty"`
}

// Port is an explicit external port declaration.
type Port struct {
	ID      int  `json:"id"`
	Switch  int  `json:"switch"`
	Ingress bool `json:"ingress"`
	Egress  bool `json:"egress"`
}

// Routing describes how paths are produced.
type Routing struct {
	// Pairs are routed along seeded random shortest paths.
	Pairs []Pair `json:"pairs,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	// Paths are taken verbatim.
	Paths []Path `json:"paths,omitempty"`
	// TrafficSlices assigns destination prefixes per egress (§IV-C).
	TrafficSlices bool `json:"trafficSlices,omitempty"`
}

// Pair is an ingress/egress pair to route.
type Pair struct {
	In  int `json:"in"`
	Out int `json:"out"`
}

// Path is an explicit route.
type Path struct {
	Ingress  int   `json:"ingress"`
	Egress   int   `json:"egress"`
	Switches []int `json:"switches"`
	// Traffic optionally restricts the packets following this path to a
	// ternary pattern ({0,1,*} string, §IV-C path slicing). Empty means
	// the path carries all packets.
	Traffic string `json:"traffic,omitempty"`
}

// Policy describes one ingress policy: explicit rules, generated rules,
// or both (explicit rules keep the higher priorities).
type Policy struct {
	Ingress  int    `json:"ingress"`
	Rules    []Rule `json:"rules,omitempty"`
	Generate *Gen   `json:"generate,omitempty"`
}

// Gen requests synthetic rules.
type Gen struct {
	NumRules int     `json:"numRules"`
	DropFrac float64 `json:"dropFraction,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
}

// Rule is one explicit ACL rule. Either Pattern (a {0,1,*} string) or
// the five-tuple fields must be set.
type Rule struct {
	Pattern  string `json:"pattern,omitempty"`
	SrcCIDR  string `json:"src,omitempty"`
	DstCIDR  string `json:"dst,omitempty"`
	SrcPort  int    `json:"srcPort,omitempty"`
	DstPort  int    `json:"dstPort,omitempty"`
	Proto    string `json:"proto,omitempty"` // "tcp", "udp", or ""
	Action   string `json:"action"`          // "permit" or "drop"
	Priority int    `json:"priority"`
}

// Load reads a JSON problem description.
func Load(r io.Reader) (*Problem, error) {
	var p Problem
	if err := DecodeStrict(r, &p); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return &p, nil
}

// DecodeStrict decodes exactly one JSON value from r into v. Unknown
// fields are rejected, and so is anything but whitespace after the
// value.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	_, err := dec.Token()
	switch {
	case err == io.EOF:
		return nil
	case err == nil:
		return errors.New("trailing data after JSON value")
	}
	return fmt.Errorf("after JSON value: %w", err)
}

// LoadBytes reads a JSON problem description from a byte slice (the
// wire form the placement daemon receives).
func LoadBytes(data []byte) (*Problem, error) {
	return Load(bytes.NewReader(data))
}

// LoadFile reads a JSON problem description from a file.
func LoadFile(path string) (*Problem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Save writes the JSON description.
func (p *Problem) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// Build materializes the description into a solvable core.Problem.
func (p *Problem) Build() (*core.Problem, error) {
	return p.build(make([]*policy.Policy, len(p.Policies)))
}

// build materializes p, taking pols[i] as policy i where it is non-nil
// and otherwise parsing policy i into pols[i]. Build passes all nils,
// Version.Build what the versions before it built.
func (p *Problem) build(pols []*policy.Policy) (*core.Problem, error) {
	topo, err := p.Topology.build()
	if err != nil {
		return nil, err
	}
	rt, err := p.Routing.build(topo)
	if err != nil {
		return nil, err
	}
	for i, ps := range p.Policies {
		if pols[i] != nil {
			continue
		}
		pol, err := ps.build()
		if err != nil {
			return nil, fmt.Errorf("spec: policy %d: %w", i, err)
		}
		pols[i] = pol
	}
	return &core.Problem{Network: topo, Routing: rt, Policies: append([]*policy.Policy(nil), pols...)}, nil
}

// BuildMonitors materializes the monitor declarations for core.Options.
func (p *Problem) BuildMonitors() ([]core.Monitor, error) {
	var out []core.Monitor
	for i, m := range p.Monitors {
		var tern match.Ternary
		switch {
		case m.Pattern != "":
			t, err := match.ParseTernary(m.Pattern)
			if err != nil {
				return nil, fmt.Errorf("spec: monitor %d: %w", i, err)
			}
			tern = t
		default:
			ft := match.FiveTuple{ProtoAny: true}
			if m.SrcCIDR != "" {
				ip, plen, err := parseCIDR(m.SrcCIDR)
				if err != nil {
					return nil, fmt.Errorf("spec: monitor %d: %w", i, err)
				}
				ft.SrcIP, ft.SrcPfxLen = ip, plen
			}
			if m.DstCIDR != "" {
				ip, plen, err := parseCIDR(m.DstCIDR)
				if err != nil {
					return nil, fmt.Errorf("spec: monitor %d: %w", i, err)
				}
				ft.DstIP, ft.DstPfxLen = ip, plen
			}
			tern = ft.Ternary()
		}
		out = append(out, core.Monitor{Switch: topology.SwitchID(m.Switch), Match: tern})
	}
	return out, nil
}

func (t Topology) build() (*topology.Network, error) {
	switch t.Type {
	case "fattree":
		hosts := t.Hosts
		if hosts == 0 {
			hosts = t.K / 2
		}
		return topology.FatTree(t.K, t.Capacity, hosts)
	case "leafspine":
		return topology.LeafSpine(t.Leaves, t.Spines, t.Capacity, maxInt(t.Hosts, 1))
	case "linear":
		return topology.Linear(t.Switches, t.Capacity)
	case "ring":
		return topology.Ring(t.Switches, t.Capacity)
	case "grid":
		return topology.Grid(t.Width, t.Height, t.Capacity)
	case "random":
		return topology.RandomConnected(t.Switches, maxInt(t.Degree, 3), t.Capacity, t.Seed)
	case "fig3":
		return topology.Fig3(t.Capacity), nil
	case "explicit":
		n := topology.NewNetwork()
		for _, s := range t.SwitchList {
			if err := n.AddSwitch(topology.Switch{ID: topology.SwitchID(s.ID), Capacity: s.Capacity, Name: s.Name}); err != nil {
				return nil, err
			}
		}
		for _, l := range t.Links {
			if err := n.AddLink(topology.SwitchID(l[0]), topology.SwitchID(l[1])); err != nil {
				return nil, err
			}
		}
		for _, pt := range t.Ports {
			if err := n.AddPort(topology.ExternalPort{
				ID: topology.PortID(pt.ID), Switch: topology.SwitchID(pt.Switch),
				Ingress: pt.Ingress, Egress: pt.Egress,
			}); err != nil {
				return nil, err
			}
		}
		return n, nil
	default:
		return nil, fmt.Errorf("spec: unknown topology type %q", t.Type)
	}
}

func (r Routing) build(topo *topology.Network) (*routing.Routing, error) {
	var rt *routing.Routing
	switch {
	case len(r.Paths) > 0:
		rt = routing.NewRouting()
		for i, p := range r.Paths {
			sws := make([]topology.SwitchID, len(p.Switches))
			for j, s := range p.Switches {
				sws[j] = topology.SwitchID(s)
			}
			rp := routing.Path{
				Ingress:  topology.PortID(p.Ingress),
				Egress:   topology.PortID(p.Egress),
				Switches: sws,
			}
			if p.Traffic != "" {
				t, err := match.ParseTernary(p.Traffic)
				if err != nil {
					return nil, fmt.Errorf("spec: path %d traffic: %w", i, err)
				}
				rp.Traffic, rp.HasTraffic = t, true
			}
			rt.Add(rp)
		}
	case len(r.Pairs) > 0:
		pairs := make([]routing.PortPair, len(r.Pairs))
		for i, pr := range r.Pairs {
			pairs[i] = routing.PortPair{In: topology.PortID(pr.In), Out: topology.PortID(pr.Out)}
		}
		var err error
		rt, err = routing.BuildRouting(topo, pairs, r.Seed)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("spec: routing needs pairs or paths")
	}
	if r.TrafficSlices {
		routing.AssignTrafficSlices(rt)
	}
	return rt, nil
}

func (ps Policy) build() (*policy.Policy, error) {
	var rules []policy.Rule
	for i, rs := range ps.Rules {
		r, err := rs.build()
		if err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
		rules = append(rules, r)
	}
	if ps.Generate != nil {
		gen := policy.Generate(ps.Ingress, policy.GenConfig{
			NumRules:     ps.Generate.NumRules,
			DropFraction: ps.Generate.DropFrac,
			Seed:         ps.Generate.Seed,
		})
		// Generated rules slot in below the explicit ones.
		base := 0
		for _, r := range rules {
			if r.Priority > base {
				base = r.Priority
			}
		}
		for _, r := range gen.Rules {
			r.Priority -= len(gen.Rules) + 1 // keep below explicit rules
			r.Priority += base
			if base == 0 {
				r.Priority = r.Priority + len(gen.Rules) + 1
			}
			rules = append(rules, r)
		}
	}
	return policy.New(ps.Ingress, rules)
}

func (rs Rule) build() (policy.Rule, error) {
	var action policy.Action
	switch strings.ToLower(rs.Action) {
	case "permit", "allow", "accept":
		action = policy.Permit
	case "drop", "deny":
		action = policy.Drop
	default:
		return policy.Rule{}, fmt.Errorf("unknown action %q", rs.Action)
	}
	if rs.Pattern != "" {
		m, err := match.ParseTernary(rs.Pattern)
		if err != nil {
			return policy.Rule{}, err
		}
		return policy.Rule{Match: m, Action: action, Priority: rs.Priority}, nil
	}
	ft := match.FiveTuple{ProtoAny: true}
	if rs.SrcCIDR != "" {
		ip, plen, err := parseCIDR(rs.SrcCIDR)
		if err != nil {
			return policy.Rule{}, err
		}
		ft.SrcIP, ft.SrcPfxLen = ip, plen
	}
	if rs.DstCIDR != "" {
		ip, plen, err := parseCIDR(rs.DstCIDR)
		if err != nil {
			return policy.Rule{}, err
		}
		ft.DstIP, ft.DstPfxLen = ip, plen
	}
	if rs.SrcPort != 0 {
		ft.SrcPort, ft.SrcExact = uint16(rs.SrcPort), true
	}
	if rs.DstPort != 0 {
		ft.DstPort, ft.DstExact = uint16(rs.DstPort), true
	}
	switch strings.ToLower(rs.Proto) {
	case "tcp":
		ft.Proto, ft.ProtoAny = 6, false
	case "udp":
		ft.Proto, ft.ProtoAny = 17, false
	case "":
	default:
		return policy.Rule{}, fmt.Errorf("unknown proto %q", rs.Proto)
	}
	return policy.Rule{Match: ft.Ternary(), Action: action, Priority: rs.Priority}, nil
}

// parseCIDR parses "a.b.c.d/len" into a uint32 and prefix length.
func parseCIDR(s string) (uint32, int, error) {
	var a, b, c, d, plen int
	n, err := fmt.Sscanf(s, "%d.%d.%d.%d/%d", &a, &b, &c, &d, &plen)
	if err != nil || n != 5 {
		return 0, 0, fmt.Errorf("bad CIDR %q", s)
	}
	for _, v := range []int{a, b, c, d} {
		if v < 0 || v > 255 {
			return 0, 0, fmt.Errorf("bad CIDR %q", s)
		}
	}
	if plen < 0 || plen > 32 {
		return 0, 0, fmt.Errorf("bad prefix length in %q", s)
	}
	ip := uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
	return ip, plen, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
