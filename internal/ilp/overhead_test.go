package ilp

import (
	"sort"
	"testing"
	"time"

	"rulefit/internal/obs"
)

// noopSink counts events and drops them — the cheapest live sink.
type noopSink struct{ n int }

func (s *noopSink) Event(obs.Event) { s.n++ }

// BenchmarkSolveSinkDisabled is the overhead gate's baseline: the Sink
// field nil, so every emission site reduces to one branch.
func BenchmarkSolveSinkDisabled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := parallelFixture(7, 16)
		if _, err := solve(m, Options{TimeLimit: 60 * time.Second}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveSinkNoop measures the same solve with a live (but
// trivial) sink, for comparison against BenchmarkSolveSinkDisabled.
func BenchmarkSolveSinkNoop(b *testing.B) {
	var sink noopSink
	for i := 0; i < b.N; i++ {
		m := parallelFixture(7, 16)
		if _, err := solve(m, Options{TimeLimit: 60 * time.Second, Sink: &sink}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDisabledSinkOverheadSmoke guards the "tracing off costs ~nothing"
// budget: the median nil-sink solve must not be grossly slower than the
// pre-observability solver would be. We compare nil-sink vs noop-sink
// medians — the nil path must not exceed the traced path by more than
// 1.5x (it should in fact be faster; the wide margin absorbs CI noise,
// while a forgotten hot-path emission without its nil guard shows up as
// an order-of-magnitude regression).
func TestDisabledSinkOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	median := func(sink obs.Sink) time.Duration {
		const runs = 7
		times := make([]time.Duration, 0, runs)
		for i := 0; i < runs; i++ {
			m := parallelFixture(7, 16)
			start := time.Now()
			if _, err := solve(m, Options{TimeLimit: 60 * time.Second, Sink: sink}, 1); err != nil {
				t.Fatal(err)
			}
			times = append(times, time.Since(start))
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[runs/2]
	}
	off := median(nil)
	on := median(&noopSink{})
	if off > on*3/2 {
		t.Fatalf("nil-sink median %v exceeds 1.5x the noop-sink median %v", off, on)
	}
}
