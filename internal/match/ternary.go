// Package match implements ternary match fields over fixed-width packet
// headers, the matching primitive used by TCAM-based OpenFlow switches.
//
// A ternary match is an array of {0, 1, *} elements, where * (wildcard)
// matches both 0 and 1. The package provides the set operations the rule
// placement engine needs: overlap tests, intersection, subsumption, and
// residual subtraction, plus a concrete 5-tuple header layout.
package match

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
	"unicode/utf8"
)

// wordBits is the number of bits carried per storage word.
const wordBits = 64

// Ternary is a ternary match field over a fixed number of header bits.
//
// Bit i is encoded across two bitmaps: care marks whether the position is
// exact (1) or wildcard (0), and value holds the required bit for exact
// positions. Value bits at wildcard positions are kept at zero so that
// equal ternaries are comparable word-by-word.
type Ternary struct {
	width int
	care  []uint64
	value []uint64
}

// NewTernary returns an all-wildcard ternary of the given width in bits.
// It panics if width is negative.
func NewTernary(width int) Ternary {
	if width < 0 {
		panic("match: negative ternary width")
	}
	nw := (width + wordBits - 1) / wordBits
	return Ternary{
		width: width,
		care:  make([]uint64, nw),
		value: make([]uint64, nw),
	}
}

// patternBits classifies a pattern byte for ParseTernary: bit 2 marks
// one of '0', '1' and '*', bit 1 an exact bit and bit 0 a one. Every
// other byte is 0.
var patternBits = [256]uint8{'*': 0b100, '0': 0b110, '1': 0b111}

// ParseTernary parses a string of '0', '1', '*' characters into a Ternary.
// The leftmost character is the most significant bit (bit width-1), matching
// the conventional written form of match patterns. Underscores and spaces
// are ignored so callers can group bits for readability.
func ParseTernary(s string) (Ternary, error) {
	if strings.ContainsAny(s, "_ ") {
		s = strings.Map(func(r rune) rune {
			if r == '_' || r == ' ' {
				return -1
			}
			return r
		}, s)
	}
	t := NewTernary(len(s))
	// Each word fills in a register, most significant character first,
	// and is stored once when its lowest bit is read.
	var care, value uint64
	for i := 0; i < len(s); i++ {
		c := patternBits[s[i]]
		if c == 0 {
			// Every byte before i is ASCII, so i is also the rune's
			// byte offset.
			r, _ := utf8.DecodeRuneInString(s[i:])
			return Ternary{}, fmt.Errorf("match: invalid ternary character %q at position %d", r, i)
		}
		care = care<<1 | uint64(c>>1&1)
		value = value<<1 | uint64(c&1)
		if bit := len(s) - 1 - i; bit%wordBits == 0 {
			t.care[bit/wordBits], t.value[bit/wordBits] = care, value
			care, value = 0, 0
		}
	}
	return t, nil
}

// MustParseTernary is ParseTernary that panics on error, for use in tests
// and static tables.
func MustParseTernary(s string) Ternary {
	t, err := ParseTernary(s)
	if err != nil {
		panic(err)
	}
	return t
}

// Width returns the number of header bits this ternary matches against.
func (t Ternary) Width() int { return t.width }

// Clone returns an independent copy of t.
func (t Ternary) Clone() Ternary {
	c := Ternary{width: t.width, care: make([]uint64, len(t.care)), value: make([]uint64, len(t.value))}
	copy(c.care, t.care)
	copy(c.value, t.value)
	return c
}

// SetBit returns a copy of t with the given bit set to an exact 0 or 1.
// It panics if bit is out of range.
func (t Ternary) SetBit(bit int, one bool) Ternary {
	t.mustContainBit(bit)
	c := t.Clone()
	w, off := bit/wordBits, uint(bit%wordBits)
	c.care[w] |= 1 << off
	if one {
		c.value[w] |= 1 << off
	} else {
		c.value[w] &^= 1 << off
	}
	return c
}

// SetWildcard returns a copy of t with the given bit reset to wildcard.
func (t Ternary) SetWildcard(bit int) Ternary {
	t.mustContainBit(bit)
	c := t.Clone()
	w, off := bit/wordBits, uint(bit%wordBits)
	c.care[w] &^= 1 << off
	c.value[w] &^= 1 << off
	return c
}

// SetField returns a copy of t with bits [lo, lo+n) set to the low n bits
// of v, most significant bit of the field at lo+n-1.
func (t Ternary) SetField(lo, n int, v uint64) Ternary {
	c := t.Clone()
	for i := 0; i < n; i++ {
		w, off := (lo+i)/wordBits, uint((lo+i)%wordBits)
		c.care[w] |= 1 << off
		if v>>uint(i)&1 == 1 {
			c.value[w] |= 1 << off
		} else {
			c.value[w] &^= 1 << off
		}
	}
	return c
}

// SetPrefix returns a copy of t whose field bits [lo, lo+n) match the
// plen most significant bits of the n-bit value v, with the remaining
// low-order bits wildcarded. This expresses an IP-prefix style match.
func (t Ternary) SetPrefix(lo, n int, v uint64, plen int) Ternary {
	if plen < 0 || plen > n {
		panic(fmt.Sprintf("match: prefix length %d out of range for %d-bit field", plen, n))
	}
	c := t.Clone()
	for i := 0; i < n; i++ {
		w, off := (lo+i)/wordBits, uint((lo+i)%wordBits)
		if i < n-plen {
			c.care[w] &^= 1 << off
			c.value[w] &^= 1 << off
			continue
		}
		c.care[w] |= 1 << off
		if v>>uint(i)&1 == 1 {
			c.value[w] |= 1 << off
		} else {
			c.value[w] &^= 1 << off
		}
	}
	return c
}

// Bit reports the state of a single bit: exact (care=true) with its value,
// or wildcard (care=false).
func (t Ternary) Bit(bit int) (care, one bool) {
	t.mustContainBit(bit)
	w, off := bit/wordBits, uint(bit%wordBits)
	return t.care[w]>>off&1 == 1, t.value[w]>>off&1 == 1
}

func (t Ternary) mustContainBit(bit int) {
	if bit < 0 || bit >= t.width {
		panic(fmt.Sprintf("match: bit %d out of range for width %d", bit, t.width))
	}
}

// ExactBits returns the number of non-wildcard bit positions.
func (t Ternary) ExactBits() int {
	n := 0
	for _, w := range t.care {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsFullWildcard reports whether every bit of t is a wildcard.
func (t Ternary) IsFullWildcard() bool {
	for _, w := range t.care {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether a and b match exactly the same set of headers.
func (t Ternary) Equal(o Ternary) bool {
	if t.width != o.width {
		return false
	}
	for i := range t.care {
		if t.care[i] != o.care[i] || t.value[i] != o.value[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string usable as a map key identifying the exact
// match set of t: the bytes of AppendKey.
func (t Ternary) Key() string {
	return string(t.AppendKey(make([]byte, 0, binary.MaxVarintLen64+16*len(t.care))))
}

// AppendKey appends t's binary key to b: the width as a uvarint, then
// each care word and value word as 8 little-endian bytes. The width
// fixes the word count, so the key is self-delimiting and a run of
// keys decodes one way; two ternaries share a key exactly when Equal.
// Every cache key in the solver is built from it (Policy.AppendKey).
func (t Ternary) AppendKey(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(t.width))
	for i := range t.care {
		b = binary.LittleEndian.AppendUint64(b, t.care[i])
		b = binary.LittleEndian.AppendUint64(b, t.value[i])
	}
	return b
}

// Overlaps reports whether some header matches both t and o, i.e. whether
// their match sets intersect. Ternaries of different widths never overlap.
func (t Ternary) Overlaps(o Ternary) bool {
	if t.width != o.width {
		return false
	}
	for i := range t.care {
		if (t.value[i]^o.value[i])&(t.care[i]&o.care[i]) != 0 {
			return false
		}
	}
	return true
}

// Intersect returns the ternary matching exactly the headers matched by
// both t and o. ok is false when the intersection is empty.
func (t Ternary) Intersect(o Ternary) (res Ternary, ok bool) {
	if t.width != o.width || !t.Overlaps(o) {
		return Ternary{}, false
	}
	res = NewTernary(t.width)
	for i := range t.care {
		res.care[i] = t.care[i] | o.care[i]
		res.value[i] = (t.value[i] & t.care[i]) | (o.value[i] & o.care[i])
	}
	return res, true
}

// Subsumes reports whether t's match set is a superset of o's
// (every header matching o also matches t).
func (t Ternary) Subsumes(o Ternary) bool {
	if t.width != o.width {
		return false
	}
	for i := range t.care {
		// Every exact bit of t must be exact in o with the same value.
		if t.care[i]&^o.care[i] != 0 {
			return false
		}
		if (t.value[i]^o.value[i])&t.care[i] != 0 {
			return false
		}
	}
	return true
}

// MatchesWords reports whether the header given as packed words matches t.
// The slice must contain at least as many words as t's storage.
func (t Ternary) MatchesWords(header []uint64) bool {
	for i := range t.care {
		var h uint64
		if i < len(header) {
			h = header[i]
		}
		if (h^t.value[i])&t.care[i] != 0 {
			return false
		}
	}
	return true
}

// Subtract returns a set of disjoint ternaries covering exactly the headers
// that match t but not o. The result has at most Width entries. If t and o
// do not overlap the result is {t}; if o subsumes t the result is empty.
func (t Ternary) Subtract(o Ternary) []Ternary {
	if !t.Overlaps(o) {
		return []Ternary{t}
	}
	var out []Ternary
	cur := t.Clone()
	for bit := 0; bit < t.width; bit++ {
		oCare, oOne := o.Bit(bit)
		if !oCare {
			continue
		}
		tCare, tOne := cur.Bit(bit)
		if tCare {
			if tOne != oOne {
				// cur already avoids o on this bit; cur ∩ o = ∅ from here.
				out = append(out, cur)
				return out
			}
			continue
		}
		// cur is wildcard at an exact bit of o: split off the half that
		// differs from o (it cannot match o), keep narrowing the rest.
		out = append(out, cur.SetBit(bit, !oOne))
		cur = cur.SetBit(bit, oOne)
	}
	// cur is now subsumed by o; drop it.
	return out
}

// String renders t as a {0,1,*} pattern, most significant bit first.
func (t Ternary) String() string {
	b := make([]byte, t.width)
	for bit := 0; bit < t.width; bit++ {
		care, one := t.Bit(bit)
		c := byte('*')
		if care {
			if one {
				c = '1'
			} else {
				c = '0'
			}
		}
		b[t.width-1-bit] = c
	}
	return string(b)
}

// CountMatching returns the number of distinct headers matched by t as a
// float64 (2^wildcards), saturating for very wide matches.
func (t Ternary) CountMatching() float64 {
	wild := t.width - t.ExactBits()
	if wild >= 1024 {
		return 1e308
	}
	out := 1.0
	for i := 0; i < wild; i++ {
		out *= 2
	}
	return out
}
