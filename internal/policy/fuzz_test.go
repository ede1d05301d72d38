package policy

import (
	"testing"

	"rulefit/internal/match"
)

// fuzzReader hands out fuzz input bytes, then zeros once it runs dry.
type fuzzReader []byte

func (r *fuzzReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// fuzzPolicy decodes a small policy: ingress, default action and up to
// 6 rules, each with a priority, an action (invalid ones included) and
// a match of up to 130 bits, so keys cross a word boundary.
func fuzzPolicy(r *fuzzReader) *Policy {
	p := &Policy{Ingress: int(r.next() % 3), Default: Action(r.next() % 3)}
	for n := int(r.next() % 7); n > 0; n-- {
		rule := Rule{Priority: int(int8(r.next())), Action: Action(r.next() % 3)}
		width := int(r.next()) % 131
		m := match.NewTernary(width)
		var bits byte
		for bit := 0; bit < width; bit++ {
			if bit%4 == 0 {
				bits = r.next()
			}
			switch bits >> (2 * (bit % 4)) & 3 {
			case 1:
				m = m.SetBit(bit, false)
			case 2:
				m = m.SetBit(bit, true)
			}
		}
		rule.Match = m
		p.Rules = append(p.Rules, rule)
	}
	return p
}

// FuzzPolicyKey checks the binary cache keys are exact renderings: two
// policies share a key exactly when their String forms are equal, keys
// concatenate without ambiguity, and two matches share a Key exactly
// when they are Equal.
func FuzzPolicyKey(f *testing.F) {
	one := []byte{1, 1, 2, 5, 2, 104, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 3, 1, 130, 0xff}
	f.Add(append(append([]byte{}, one...), one...))
	f.Add(append(append([]byte{}, one...), 1, 1, 2, 5, 2, 105, 0x12))
	f.Add([]byte{0, 2, 1, 0x80, 2, 64, 0xaa, 0, 2, 1, 0x80, 2, 65, 0xaa})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		a, b := fuzzPolicy(&r), fuzzPolicy(&r)
		ka, kb := string(a.AppendKey(nil)), string(b.AppendKey(nil))
		same := a.String() == b.String()
		if (ka == kb) != same {
			t.Fatalf("keys equal %t, String equal %t:\n%s\n%s", ka == kb, same, a, b)
		}
		if ab, ba := ka+kb, kb+ka; (ab == ba) != same {
			t.Fatalf("concatenated keys equal %t, String equal %t:\n%s\n%s", ab == ba, same, a, b)
		}
		rules := append(append([]Rule{}, a.Rules...), b.Rules...)
		for _, x := range rules {
			for _, y := range rules {
				if (x.Match.Key() == y.Match.Key()) != x.Match.Equal(y.Match) {
					t.Fatalf("Key equal %t, Equal %t: %s vs %s", x.Match.Key() == y.Match.Key(), x.Match.Equal(y.Match), x.Match, y.Match)
				}
			}
		}
	})
}
