// Fixture for the detsource analyzer: all four taint kinds, both
// sinks, sanitizers, and suppression.
package a

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"
)

// --- map iteration order ---

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out // want "derived from map iteration order"
}

func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys // sanitized: sorted-keys idiom
}

// Only reordering calls sanitize: searching or reversing a
// map-ordered slice leaves its order map-dependent.
func ContainsKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	_ = slices.Contains(out, "")
	return out // want "derived from map iteration order"
}

func ReversedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Reverse(out)
	return out // want "derived from map iteration order"
}

func SearchedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	_ = sort.SearchStrings(out, "")
	return out // want "derived from map iteration order"
}

// Copying, compacting, concatenating or joining a map-ordered slice
// keeps its order, so the result carries the taint.
func ClonedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return slices.Clone(out) // want "derived from map iteration order"
}

func JoinedKeys(m map[string]int) string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return strings.Join(out, ",") // want "derived from map iteration order"
}

func CompactedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return slices.Compact(out) // want "derived from map iteration order"
}

func ConcatKeys(m map[string]int, head []string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return slices.Concat(head, out) // want "derived from map iteration order"
}

func JoinedBytes(m map[string][]byte) []byte {
	var out [][]byte
	for _, v := range m {
		out = append(out, v)
	}
	return bytes.Join(out, nil) // want "derived from map iteration order"
}

func SortedClone(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return slices.Clone(out) // sanitized before the copy
}

func SlicesSortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out // sanitized: slices.Sort reorders
}

// keysUnexported leaks order but is not itself a report site; callers
// inherit the taint through its ReturnsTaint fact.
func keysUnexported(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func Relay(m map[string]int) []string {
	return keysUnexported(m) // want "derived from map iteration order"
}

func KeyedSlots(m map[int][]int) map[int][]int {
	out := make(map[int][]int, len(m))
	for k, vs := range m {
		out[k] = append(out[k], vs...) // per-key slot: order cannot matter
	}
	return out
}

// --- wall clock ---

type Report struct {
	Label  string  `json:"label"`
	WallMS float64 `json:"wall_ms"`
	TimeMS float64 `json:"time_ms"`
}

func Fill(r *Report, start time.Time) {
	r.TimeMS = float64(time.Since(start).Milliseconds()) // sanctioned normalization point
	r.WallMS = float64(time.Since(start).Milliseconds()) // want "serialized field Report.WallMS"
}

func Build(start time.Time) Report {
	return Report{
		Label:  "x",
		WallMS: float64(time.Since(start).Milliseconds()), // want "serialized field Report.WallMS"
	}
}

// Elapsed returns wall-clock data: legitimate at an API boundary (fact
// only, no report) — it becomes a finding only if serialized.
func Elapsed(start time.Time) float64 {
	return float64(time.Since(start).Milliseconds())
}

type plain struct {
	wall float64 // no json tag: not a serialized sink
}

func FillPlain(p *plain, start time.Time) {
	p.wall = float64(time.Since(start).Milliseconds())
}

// --- global math/rand vs seeded sources ---

func Roll() int {
	return rand.Intn(6) // want "derived from global math/rand"
}

func SeededRoll(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(6) // deterministic: explicit seeded source
}

// --- select arbitration ---

func Race(a, b chan int) int {
	var v int
	select {
	case v = <-a:
	case v = <-b:
	}
	return v // want "derived from select arbitration"
}

func SingleRecv(a chan int, done chan struct{}) int {
	var v int
	select {
	case v = <-a:
	case <-done:
	}
	return v // one assigning clause: no arbitration on v's value source
}

// --- sanitizer directive ---

//lint:detsource-sanitizer canonical ordering helper
func canonical(s []string) []string {
	sort.Strings(s)
	return s
}

func Canonicalized(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return canonical(out)
}

// --- suppression ---

func Legacy(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	//lint:detsource order is consumed as a set downstream
	return out
}
