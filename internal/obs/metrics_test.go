package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// scrape renders m's exposition and reads it back as a scraper does.
func scrape(t *testing.T, m *Metrics) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := PrometheusSamples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPrometheusGolden pins the exposition byte for byte: a registry
// fed a fixed sequence of solver events (every node outcome and every
// done status, with fixed times), request, phase, delta and cache
// records and the three gauges renders testdata/metrics_golden.txt.
// The zero-valued status and outcome series are part of the format.
// A renamed family, a reordered series or a changed value rendering
// fails here before a dashboard notices.
func TestPrometheusGolden(t *testing.T) {
	m := NewMetrics()
	for _, e := range []Event{
		{Kind: KindStart, TimeMS: 0.25},
		{Kind: KindRootLP, Iters: 40, Refactors: 1, TimeMS: 1},
		{Kind: KindNode, Node: 1, Outcome: OutcomeBranched, TimeMS: 1.5},
		{Kind: KindNode, Node: 2, Outcome: OutcomeBound, TimeMS: 2},
		{Kind: KindSkip, TimeMS: 2.25},
		{Kind: KindNode, Node: 3, Outcome: OutcomeInfeasible, TimeMS: 2.5},
		{Kind: KindNode, Node: 4, Outcome: OutcomeIntegral, TimeMS: 3},
		{Kind: KindIncumbent, Node: 4, TimeMS: 3},
		{Kind: KindNode, Node: 5, Outcome: OutcomeLost, TimeMS: 3.5},
		{Kind: KindDone, Outcome: "optimal", Node: 5, Iters: 1234567, Refactors: 12, TimeMS: 4},
		{Kind: KindDone, Outcome: "feasible", Node: 700, Iters: 9000, Refactors: 30, TimeMS: 1500},
		{Kind: KindDone, Outcome: "infeasible", Node: 0, Iters: 17, TimeMS: 0.75},
		{Kind: KindDone, Outcome: "limit", Node: 3, Iters: 210, Refactors: 2, TimeMS: 250},
		{Kind: KindDone, Outcome: "unbounded", Node: 1, Iters: 3, TimeMS: 0.125},
	} {
		m.Event(e)
	}
	m.RecordRequest(RequestSample{Status: "optimal", Placed: true, InstalledRules: 42})
	m.RecordRequest(RequestSample{Status: "optimal", Placed: true, InstalledRules: 1500})
	m.RecordRequest(RequestSample{Status: "limit", StopReason: "deadline", Placed: true, InstalledRules: 7})
	m.RecordRequest(RequestSample{Status: "shed"})
	m.RecordPhaseTrace("queue_wait", 80*time.Microsecond, "req-000001-a")
	m.RecordPhaseTrace("solve", 12*time.Millisecond, "req-000001-a")
	m.RecordPhaseTrace("solve", 3*time.Second, "req-000002-b")
	m.RecordPhaseTrace("parse", 600*time.Microsecond, "")
	m.RecordDelta("warm")
	m.RecordDelta("identity")
	m.RecordDelta("warm")
	m.RecordDelta("cold")
	m.RecordEncodeCache("policy", 5, 2)
	m.RecordEncodeCache("merge", 0, 1)
	m.RecordEncodeCache("solution", 4, 0)
	m.InFlight().Add(1)
	m.QueueDepth().Add(3)
	m.Sessions().Set(2)

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition differs from %s (rerun with -update if intended):\n%s", path, buf.Bytes())
	}
	if err := CheckPrometheusText(bytes.NewReader(want)); err != nil {
		t.Fatalf("golden not conformant: %v", err)
	}
}
