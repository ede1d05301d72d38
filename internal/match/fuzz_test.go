package match

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzTernaryOverlap cross-checks the ternary set algebra — Overlaps,
// Intersect, Subsumes, Subtract, String/Parse — against itself and,
// for narrow widths, against exhaustive header enumeration. Overlaps/
// Subsumes/Intersect are the primitives the placement encoder's rule
// dependency analysis (Eq. 1) is built on, so a wrong answer here means
// silently wrong placements.
func FuzzTernaryOverlap(f *testing.F) {
	f.Add("1*0*", "10**")
	f.Add("****", "1111")
	f.Add("0", "1")
	f.Add("", "")
	f.Add("10*1*0", "10*1*0")
	f.Add("1*********0", "0*********1")
	f.Add(strings.Repeat("*", 64), strings.Repeat("1", 64))
	f.Add(strings.Repeat("10", 33)+"*", strings.Repeat("*", 67))
	f.Add("01x", "1é*")
	f.Add("1_0 *", "0\xff1")
	f.Fuzz(func(t *testing.T, sa, sb string) {
		// ParseTernary agrees with a bit-at-a-time parse, errors included.
		for _, s := range []string{sa, sb} {
			got, gotErr := ParseTernary(s)
			want, wantErr := parseBitwise(s)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("ParseTernary(%q) = %#v, %v; bit-at-a-time parse gives %#v, %v", s, got, gotErr, want, wantErr)
			}
		}
		a, errA := ParseTernary(sa)
		b, errB := ParseTernary(sb)
		if errA != nil || errB != nil {
			return
		}
		if a.Width() > 128 || b.Width() > 128 {
			return
		}

		// String/Parse are inverses.
		for _, x := range []Ternary{a, b} {
			rt, err := ParseTernary(x.String())
			if err != nil || !rt.Equal(x) {
				t.Fatalf("round trip broke %q: %v", x.String(), err)
			}
		}

		// Reflexivity: every ternary matches at least one header.
		if !a.Overlaps(a) || !a.Subsumes(a) {
			t.Fatalf("%q does not overlap/subsume itself", sa)
		}
		if inter, ok := a.Intersect(a); !ok || !inter.Equal(a) {
			t.Fatalf("%q: self-intersection is not identity", sa)
		}
		if rem := a.Subtract(a); len(rem) != 0 {
			t.Fatalf("%q: self-subtraction left %d pieces", sa, len(rem))
		}

		// Symmetry.
		if a.Overlaps(b) != b.Overlaps(a) {
			t.Fatalf("Overlaps(%q,%q) is asymmetric", sa, sb)
		}

		inter, ok := a.Intersect(b)
		if ok != a.Overlaps(b) {
			t.Fatalf("Intersect ok=%v but Overlaps=%v for %q,%q", ok, a.Overlaps(b), sa, sb)
		}
		if ok && (!a.Subsumes(inter) || !b.Subsumes(inter)) {
			t.Fatalf("intersection of %q,%q not subsumed by both", sa, sb)
		}
		if a.Subsumes(b) && !a.Overlaps(b) {
			t.Fatalf("%q subsumes %q but does not overlap it", sa, sb)
		}

		if a.Width() != b.Width() {
			// Cross-width operations must all answer "disjoint".
			if a.Overlaps(b) || a.Subsumes(b) || ok {
				t.Fatalf("cross-width ternaries %q,%q reported a relation", sa, sb)
			}
			return
		}

		pieces := a.Subtract(b)
		for i, p := range pieces {
			if !a.Subsumes(p) {
				t.Fatalf("Subtract(%q,%q): piece %d not inside a", sa, sb, i)
			}
			if p.Overlaps(b) {
				t.Fatalf("Subtract(%q,%q): piece %d overlaps b", sa, sb, i)
			}
			for j := i + 1; j < len(pieces); j++ {
				if p.Overlaps(pieces[j]) {
					t.Fatalf("Subtract(%q,%q): pieces %d and %d overlap", sa, sb, i, j)
				}
			}
		}

		// Exhaustive ground truth for narrow widths.
		w := a.Width()
		if w == 0 || w > 12 {
			return
		}
		sawBoth := false
		subsumeHolds := true
		for hv := uint64(0); hv < 1<<uint(w); hv++ {
			h := []uint64{hv}
			inA, inB := a.MatchesWords(h), b.MatchesWords(h)
			if inA && inB {
				sawBoth = true
				if !ok || !inter.MatchesWords(h) {
					t.Fatalf("header %b in both %q,%q but not in intersection", hv, sa, sb)
				}
			} else if ok && inter.MatchesWords(h) {
				t.Fatalf("header %b in intersection of %q,%q but not both", hv, sa, sb)
			}
			if inB && !inA {
				subsumeHolds = false
			}
			nPieces := 0
			for _, p := range pieces {
				if p.MatchesWords(h) {
					nPieces++
				}
			}
			want := 0
			if inA && !inB {
				want = 1
			}
			if nPieces != want {
				t.Fatalf("header %b matched %d Subtract pieces, want %d (%q minus %q)", hv, nPieces, want, sa, sb)
			}
		}
		if sawBoth != a.Overlaps(b) {
			t.Fatalf("Overlaps(%q,%q)=%v but enumeration says %v", sa, sb, a.Overlaps(b), sawBoth)
		}
		if subsumeHolds != a.Subsumes(b) {
			t.Fatalf("Subsumes(%q,%q)=%v but enumeration says %v", sa, sb, a.Subsumes(b), subsumeHolds)
		}
	})
}

// parseBitwise is the reference ParseTernary is checked against: it
// sets one bit per character with a read-modify-write of its word, and
// reports the first character outside {0, 1, *} at its byte offset.
func parseBitwise(s string) (Ternary, error) {
	s = strings.Map(func(r rune) rune {
		if r == '_' || r == ' ' {
			return -1
		}
		return r
	}, s)
	t := NewTernary(len(s))
	for i, r := range s {
		bit := len(s) - 1 - i
		w, off := bit/wordBits, uint(bit%wordBits)
		switch r {
		case '*':
		case '0':
			t.care[w] |= 1 << off
		case '1':
			t.care[w] |= 1 << off
			t.value[w] |= 1 << off
		default:
			return Ternary{}, fmt.Errorf("match: invalid ternary character %q at position %d", r, i)
		}
	}
	return t, nil
}
