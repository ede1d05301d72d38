package match

import (
	"math/rand"
	"testing"
)

// benchTernaries builds a pool of realistic 5-tuple matches.
func benchTernaries(n int, seed int64) []Ternary {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Ternary, n)
	for i := range out {
		out[i] = FiveTuple{
			SrcIP: rng.Uint32(), SrcPfxLen: 8 + rng.Intn(17),
			DstIP: rng.Uint32(), DstPfxLen: 8 + rng.Intn(17),
			ProtoAny: true,
		}.Ternary()
	}
	return out
}

func BenchmarkOverlaps(b *testing.B) {
	ts := benchTernaries(256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := ts[i%len(ts)]
		c := ts[(i*7+3)%len(ts)]
		_ = a.Overlaps(c)
	}
}

func BenchmarkIntersect(b *testing.B) {
	ts := benchTernaries(256, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := ts[i%len(ts)]
		c := ts[(i*11+5)%len(ts)]
		_, _ = a.Intersect(c)
	}
}

func BenchmarkSubsumes(b *testing.B) {
	ts := benchTernaries(256, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ts[i%len(ts)].Subsumes(ts[(i*13+7)%len(ts)])
	}
}

func BenchmarkMatchesWords(b *testing.B) {
	ts := benchTernaries(64, 4)
	rng := rand.New(rand.NewSource(5))
	headers := make([][]uint64, 64)
	for i := range headers {
		headers[i] = Header{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16)),
			Proto: uint8(rng.Intn(256)),
		}.Words()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ts[i%len(ts)].MatchesWords(headers[i%len(headers)])
	}
}

func BenchmarkSubtract(b *testing.B) {
	ts := benchTernaries(128, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ts[i%len(ts)].Subtract(ts[(i*17+9)%len(ts)])
	}
}

// BenchmarkParseTernary parses 104-bit five-tuple patterns, the rule
// form a session's instance carries.
func BenchmarkParseTernary(b *testing.B) {
	ts := benchTernaries(256, 7)
	pats := make([]string, len(ts))
	for i, t := range ts {
		pats[i] = t.String()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseTernary(pats[i%len(pats)]); err != nil {
			b.Fatal(err)
		}
	}
}
