package spec

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"

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
	var w keyWriter
	if prev != nil {
		// The key is written once, into a buffer with room for a few
		// added rules that becomes the string without a copy.
		w.Grow(len(prev.key) + len(prev.key)/64)
	}
	p.writeHeadKey(&w)
	w.uvarint(uint64(n))
	for i := range p.Policies {
		v.parts[i] = w.Len()
		if prev != nil && i < len(prev.pols) && p.Policies[i].sameAs(&prev.spec.Policies[i]) {
			w.WriteString(prev.key[prev.parts[i]:prev.parts[i+1]])
			v.pols[i] = prev.pols[i]
			continue
		}
		p.Policies[i].writeKey(&w)
	}
	v.parts[n] = w.Len()
	v.key = w.String()
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

// writeHeadKey writes the key of everything in p but its policies.
func (p *Problem) writeHeadKey(w *keyWriter) {
	t := &p.Topology
	w.str(t.Type)
	for _, x := range [...]int{t.K, t.Capacity, t.Hosts, t.Leaves, t.Spines, t.Switches, t.Width, t.Height, t.Degree} {
		w.varint(int64(x))
	}
	w.varint(t.Seed)
	w.uvarint(uint64(len(t.SwitchList)))
	for _, s := range t.SwitchList {
		w.varint(int64(s.ID))
		w.varint(int64(s.Capacity))
		w.str(s.Name)
	}
	w.uvarint(uint64(len(t.Links)))
	for _, l := range t.Links {
		w.varint(int64(l[0]))
		w.varint(int64(l[1]))
	}
	w.uvarint(uint64(len(t.Ports)))
	for _, pt := range t.Ports {
		w.varint(int64(pt.ID))
		w.varint(int64(pt.Switch))
		w.flag(pt.Ingress)
		w.flag(pt.Egress)
	}

	r := &p.Routing
	w.uvarint(uint64(len(r.Pairs)))
	for _, pr := range r.Pairs {
		w.varint(int64(pr.In))
		w.varint(int64(pr.Out))
	}
	w.varint(r.Seed)
	w.uvarint(uint64(len(r.Paths)))
	for _, path := range r.Paths {
		w.varint(int64(path.Ingress))
		w.varint(int64(path.Egress))
		w.uvarint(uint64(len(path.Switches)))
		for _, s := range path.Switches {
			w.varint(int64(s))
		}
		w.str(path.Traffic)
	}
	w.flag(r.TrafficSlices)

	w.uvarint(uint64(len(p.Monitors)))
	for _, m := range p.Monitors {
		w.varint(int64(m.Switch))
		w.str(m.Pattern)
		w.str(m.SrcCIDR)
		w.str(m.DstCIDR)
	}
}

// writeKey writes the key of one policy.
func (ps *Policy) writeKey(w *keyWriter) {
	w.varint(int64(ps.Ingress))
	w.uvarint(uint64(len(ps.Rules)))
	for _, r := range ps.Rules {
		w.str(r.Pattern)
		w.str(r.SrcCIDR)
		w.str(r.DstCIDR)
		w.varint(int64(r.SrcPort))
		w.varint(int64(r.DstPort))
		w.str(r.Proto)
		w.str(r.Action)
		w.varint(int64(r.Priority))
	}
	g := ps.Generate
	w.flag(g != nil)
	if g != nil {
		w.varint(int64(g.NumRules))
		w.Write(binary.LittleEndian.AppendUint64(make([]byte, 0, 8), math.Float64bits(g.DropFrac)))
		w.varint(g.Seed)
	}
}

// keyWriter writes a key.
type keyWriter struct{ strings.Builder }

func (w *keyWriter) varint(x int64) {
	var t [binary.MaxVarintLen64]byte
	w.Write(binary.AppendVarint(t[:0], x))
}

func (w *keyWriter) uvarint(x uint64) {
	var t [binary.MaxVarintLen64]byte
	w.Write(binary.AppendUvarint(t[:0], x))
}

func (w *keyWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.WriteString(s)
}

// flag writes a bool as one byte, 0 or 1.
func (w *keyWriter) flag(x bool) {
	if x {
		w.WriteByte(1)
	} else {
		w.WriteByte(0)
	}
}
