package spec

import (
	"encoding/binary"
	"math"
	"slices"

	"rulefit/internal/core"
	"rulefit/internal/policy"
)

// A Version is one version of a problem that the session layer edits:
// the problem, its binary key, and each policy as built once Build has
// built it. NewVersion takes from the version before every policy the
// edit left unchanged, both its part of the key and its built form, so
// an edit renders and parses only the policies it changed. Built
// policies are immutable by convention, so versions share them. A
// Version is not safe for concurrent use.
type Version struct {
	spec *Problem
	key  string
	// parts[i] is where policy i's part of key starts; parts[n] is the
	// key's length.
	parts []int
	// pols[i] is policy i built, or nil until Build builds it.
	pols []*policy.Policy
}

// NewVersion renders p's key, taking from prev, which may be nil, the
// key part and the built policy of every policy of p that equals prev's
// at the same index: the same ingress, equal rules and no generator on
// either side. p must not change afterwards.
func NewVersion(p *Problem, prev *Version) *Version {
	n := len(p.Policies)
	v := &Version{spec: p, parts: make([]int, n+1), pols: make([]*policy.Policy, n)}
	size := 0
	if prev != nil {
		size = len(prev.key) + len(prev.key)/64 // room for a few added rules
	}
	b := binary.AppendUvarint(p.appendHeadKey(make([]byte, 0, size)), uint64(n))
	for i := range p.Policies {
		v.parts[i] = len(b)
		if prev != nil && i < len(prev.pols) && p.Policies[i].sameAs(&prev.spec.Policies[i]) {
			b = append(b, prev.key[prev.parts[i]:prev.parts[i+1]]...)
			v.pols[i] = prev.pols[i]
			continue
		}
		b = p.Policies[i].appendKey(b)
	}
	v.parts[n] = len(b)
	v.key = string(b)
	return v
}

// Spec returns the version's problem. Callers must not modify it.
func (v *Version) Spec() *Problem { return v.spec }

// Key returns the version's binary key, the session memo's key. It
// renders every field of the problem: integers as varints, strings and
// lists behind a uvarint length, flags as one byte and floats as their
// eight IEEE 754 bytes. Every part is self-delimiting, so a key decodes
// one way and two problems share a key exactly when they are equal
// field for field (a nil list counting as empty), which makes them
// build the same core problem. It is never a hash: a collision could
// serve a wrong placement.
func (v *Version) Key() string { return v.key }

// Build materializes the version like Problem.Build, parsing only the
// policies it does not hold built yet, and keeps what it parses for
// the versions made from this one.
func (v *Version) Build() (*core.Problem, error) {
	return v.spec.build(v.pols)
}

// sameAs reports whether ps may take prev's key part and built
// policy.
func (ps *Policy) sameAs(prev *Policy) bool {
	return ps.Ingress == prev.Ingress && ps.Generate == nil && prev.Generate == nil &&
		slices.Equal(ps.Rules, prev.Rules)
}

// appendHeadKey appends the key of everything in p but its policies.
func (p *Problem) appendHeadKey(b []byte) []byte {
	t := &p.Topology
	b = appendString(b, t.Type)
	for _, x := range [...]int{t.K, t.Capacity, t.Hosts, t.Leaves, t.Spines, t.Switches, t.Width, t.Height, t.Degree} {
		b = binary.AppendVarint(b, int64(x))
	}
	b = binary.AppendVarint(b, t.Seed)
	b = binary.AppendUvarint(b, uint64(len(t.SwitchList)))
	for _, s := range t.SwitchList {
		b = binary.AppendVarint(b, int64(s.ID))
		b = binary.AppendVarint(b, int64(s.Capacity))
		b = appendString(b, s.Name)
	}
	b = binary.AppendUvarint(b, uint64(len(t.Links)))
	for _, l := range t.Links {
		b = binary.AppendVarint(b, int64(l[0]))
		b = binary.AppendVarint(b, int64(l[1]))
	}
	b = binary.AppendUvarint(b, uint64(len(t.Ports)))
	for _, pt := range t.Ports {
		b = binary.AppendVarint(b, int64(pt.ID))
		b = binary.AppendVarint(b, int64(pt.Switch))
		b = appendBool(b, pt.Ingress)
		b = appendBool(b, pt.Egress)
	}

	r := &p.Routing
	b = binary.AppendUvarint(b, uint64(len(r.Pairs)))
	for _, pr := range r.Pairs {
		b = binary.AppendVarint(b, int64(pr.In))
		b = binary.AppendVarint(b, int64(pr.Out))
	}
	b = binary.AppendVarint(b, r.Seed)
	b = binary.AppendUvarint(b, uint64(len(r.Paths)))
	for _, path := range r.Paths {
		b = binary.AppendVarint(b, int64(path.Ingress))
		b = binary.AppendVarint(b, int64(path.Egress))
		b = binary.AppendUvarint(b, uint64(len(path.Switches)))
		for _, s := range path.Switches {
			b = binary.AppendVarint(b, int64(s))
		}
		b = appendString(b, path.Traffic)
	}
	b = appendBool(b, r.TrafficSlices)

	b = binary.AppendUvarint(b, uint64(len(p.Monitors)))
	for _, m := range p.Monitors {
		b = binary.AppendVarint(b, int64(m.Switch))
		b = appendString(b, m.Pattern)
		b = appendString(b, m.SrcCIDR)
		b = appendString(b, m.DstCIDR)
	}
	return b
}

// appendKey appends the key of one policy.
func (ps *Policy) appendKey(b []byte) []byte {
	b = binary.AppendVarint(b, int64(ps.Ingress))
	b = binary.AppendUvarint(b, uint64(len(ps.Rules)))
	for _, r := range ps.Rules {
		b = appendString(b, r.Pattern)
		b = appendString(b, r.SrcCIDR)
		b = appendString(b, r.DstCIDR)
		b = binary.AppendVarint(b, int64(r.SrcPort))
		b = binary.AppendVarint(b, int64(r.DstPort))
		b = appendString(b, r.Proto)
		b = appendString(b, r.Action)
		b = binary.AppendVarint(b, int64(r.Priority))
	}
	g := ps.Generate
	b = appendBool(b, g != nil)
	if g != nil {
		b = binary.AppendVarint(b, int64(g.NumRules))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(g.DropFrac))
		b = binary.AppendVarint(b, g.Seed)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, x bool) []byte {
	if x {
		return append(b, 1)
	}
	return append(b, 0)
}
