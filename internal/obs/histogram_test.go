package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramSnapshotQuantile exercises the interpolated quantile
// estimator: empty snapshots, interior interpolation, and the +Inf
// clamp.
func TestHistogramSnapshotQuantile(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}

	h := NewHistogram(HistogramOpts{Start: 1, Factor: 2, Count: 3}) // bounds 1, 2, 4
	for i := 0; i < 10; i++ {
		h.Observe(1.5) // all ten land in the (1, 2] bucket
	}
	s := h.Snapshot()
	// Median rank 5 of 10 falls halfway into the (1, 2] bucket.
	if got := s.Quantile(0.5); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 1.5", got)
	}
	if got := s.Quantile(1); math.Abs(got-2) > 1e-9 {
		t.Fatalf("p100 = %v, want 2", got)
	}

	over := NewHistogram(HistogramOpts{Start: 1, Factor: 2, Count: 3})
	over.Observe(100) // +Inf bucket
	if got := over.Snapshot().Quantile(0.99); got != 4 {
		t.Fatalf("overflow quantile = %v, want largest finite bound 4", got)
	}
}

// TestConcurrentInstrumentWriters is the -race stress test: concurrent
// writers on Histogram, LabeledCounter, and LabeledHistogram, with
// snapshot totals asserted equal to the sum of recorded observations.
func TestConcurrentInstrumentWriters(t *testing.T) {
	const (
		writers = 8
		perW    = 500
	)
	var (
		h  Histogram
		lc LabeledCounter
		lh LabeledHistogram
		wg sync.WaitGroup
	)
	labels := []string{"solve", "encode", "queue_wait"}
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perW; j++ {
				v := float64(j%13) * 0.001
				h.Observe(v)
				lc.Add(1, labels[j%len(labels)])
				lh.Observe(labels[j%len(labels)], v)
			}
		}()
	}
	wg.Wait()

	const total = writers * perW
	if got := h.Snapshot().Count; got != total {
		t.Fatalf("histogram count = %d, want %d", got, total)
	}
	var lcSum int64
	for _, s := range lc.Snapshot() {
		lcSum += s.Value
	}
	if lcSum != total {
		t.Fatalf("labeled counter sum = %d, want %d", lcSum, total)
	}
	var lhSum uint64
	for _, m := range lh.Snapshot() {
		lhSum += m.Hist.Count
	}
	if lhSum != total {
		t.Fatalf("labeled histogram count = %d, want %d", lhSum, total)
	}
}

// TestLabeledHistogramSnapshotSortedSharedLayout checks family members
// share one layout and snapshot in sorted label order.
func TestLabeledHistogramSnapshotSortedSharedLayout(t *testing.T) {
	lh := NewLabeledHistogram(HistogramOpts{Start: 0.01, Factor: 10, Count: 3})
	lh.Observe("zeta", 0.5)
	lh.Observe("alpha", 0.02)
	lh.Observe("zeta", 5000) // +Inf bucket
	members := lh.Snapshot()
	if len(members) != 2 || members[0].Label != "alpha" || members[1].Label != "zeta" {
		t.Fatalf("members = %+v, want sorted [alpha zeta]", members)
	}
	for _, m := range members {
		if len(m.Hist.Buckets) != 4 {
			t.Fatalf("member %s has %d buckets, want shared layout of 4", m.Label, len(m.Hist.Buckets))
		}
	}
	if members[1].Hist.Count != 2 {
		t.Fatalf("zeta count = %d, want 2", members[1].Hist.Count)
	}
}

// TestPhaseWallExposition checks RecordPhaseTrace surfaces as a
// labeled histogram family, one member per phase in sorted order, in
// Prometheus text that passes the shared conformance check (per-phase
// cumulative bucket sequences).
func TestPhaseWallExposition(t *testing.T) {
	m := NewMetrics()
	m.RecordPhaseTrace("solve", 80*time.Millisecond, "")
	m.RecordPhaseTrace("solve", 5*time.Millisecond, "")
	m.RecordPhaseTrace("queue_wait", 100*time.Microsecond, "")

	s := scrape(t, m)
	members := 0
	for series := range s {
		if strings.HasPrefix(series, "rulefit_request_phase_seconds_count{") {
			members++
		}
	}
	if members != 2 {
		t.Fatalf("phase members = %d, want 2", members)
	}
	if s[`rulefit_request_phase_seconds_count{phase="solve"}`] != 2 {
		t.Fatalf("solve phase count = %g, want 2", s[`rulefit_request_phase_seconds_count{phase="solve"}`])
	}

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if strings.Index(text, `phase="queue_wait"`) > strings.Index(text, `phase="solve"`) {
		t.Fatalf("phase members not sorted [queue_wait solve]:\n%s", text)
	}
	for _, want := range []string{
		"# TYPE rulefit_request_phase_seconds histogram",
		`rulefit_request_phase_seconds_bucket{phase="solve",le="+Inf"} 2`,
		`rulefit_request_phase_seconds_count{phase="queue_wait"} 1`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if err := CheckPrometheusText(&buf); err != nil {
		t.Fatalf("conformance: %v\n%s", err, text)
	}
}
