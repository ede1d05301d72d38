package load

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"rulefit/internal/daemon"
)

// smallDelta is a fast instance class for tests: 3 policies of 8
// rules each, still multi-policy so the session's decomposed warm
// path applies.
var smallDelta = DeltaOpts{Steps: 4, Ingresses: 3, RulesPerPolicy: 8, FatTreeK: 4}

// TestRunDeltaInProcess drives the in-process delta replay end to
// end: every step must pass the warm/cold identity check, land on the
// session's warm path, and the report must carry the paired
// warm/cold request records.
func TestRunDeltaInProcess(t *testing.T) {
	cfg := Config{Seed: 21}
	rep, err := RunDelta(context.Background(), cfg, smallDelta, NewInProcessTarget(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Config.Mode != "delta" {
		t.Errorf("mode = %q, want delta", rep.Config.Mode)
	}
	if rep.Delta == nil {
		t.Fatal("report missing delta record")
	}
	if rep.Delta.Mismatched != 0 {
		t.Fatalf("%d steps broke warm/cold byte identity", rep.Delta.Mismatched)
	}
	if rep.Delta.Steps != smallDelta.Steps {
		t.Errorf("steps = %d, want %d", rep.Delta.Steps, smallDelta.Steps)
	}
	if got := rep.Delta.Paths["warm"]; got != smallDelta.Steps {
		t.Errorf("warm answers = %d of %d (paths %v)", got, smallDelta.Steps, rep.Delta.Paths)
	}
	if rep.Total != 2*smallDelta.Steps || rep.OK != rep.Total {
		t.Errorf("total/ok = %d/%d, want %d successful requests", rep.Total, rep.OK, 2*smallDelta.Steps)
	}
	for i, req := range rep.Requests {
		want := "delta-warm"
		if i%2 == 1 {
			want = "delta-cold"
		}
		if req.Stratum != want {
			t.Errorf("request %d stratum = %q, want %q", i, req.Stratum, want)
		}
		if req.PlacementHash == "" {
			t.Errorf("request %d has no placement hash", i)
		}
	}
	if rep.Delta.WarmP99MS <= 0 || rep.Delta.ColdP99MS <= 0 {
		t.Errorf("percentiles not populated: %+v", rep.Delta)
	}
}

// TestRunDeltaHTTPMatchesInProcess is the cross-target identity
// check: the HTTP session path and the in-process session path must
// serve byte-identical placements for the same delta workload.
func TestRunDeltaHTTPMatchesInProcess(t *testing.T) {
	base, _ := startDaemon(t, daemon.Config{MaxInFlight: 2})
	cfg := Config{Seed: 21}

	httpRep, err := RunDelta(context.Background(), cfg, smallDelta, NewHTTPTarget(base, nil))
	if err != nil {
		t.Fatal(err)
	}
	inRep, err := RunDelta(context.Background(), cfg, smallDelta, NewInProcessTarget(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if httpRep.Delta.Mismatched != 0 || inRep.Delta.Mismatched != 0 {
		t.Fatalf("identity mismatches: http %d, inprocess %d",
			httpRep.Delta.Mismatched, inRep.Delta.Mismatched)
	}
	if httpRep.Workload.Fingerprint != inRep.Workload.Fingerprint {
		t.Fatalf("same seed, fingerprints differ: %s vs %s",
			httpRep.Workload.Fingerprint, inRep.Workload.Fingerprint)
	}
	if len(httpRep.Requests) != len(inRep.Requests) {
		t.Fatalf("request counts differ: %d vs %d", len(httpRep.Requests), len(inRep.Requests))
	}
	for i := range httpRep.Requests {
		if h, p := httpRep.Requests[i].PlacementHash, inRep.Requests[i].PlacementHash; h != p {
			t.Errorf("request %d: http hash %s != inprocess hash %s", i, h, p)
		}
	}
}

// TestDeltaReportRoundTrip checks the delta record survives the
// report write/read cycle (what cmd/benchdiff -check consumes).
func TestDeltaReportRoundTrip(t *testing.T) {
	rep, err := RunDelta(context.Background(), Config{Seed: 3},
		DeltaOpts{Steps: 2, Ingresses: 2, RulesPerPolicy: 6, FatTreeK: 4}, NewInProcessTarget(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "delta.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Delta == nil {
		t.Fatal("delta record lost in round trip")
	}
	if got.Delta.Class != rep.Delta.Class || got.Delta.SpeedupP99 != rep.Delta.SpeedupP99 {
		t.Errorf("delta record drifted in round trip: %+v vs %+v", got.Delta, rep.Delta)
	}
}

// TestExactQuantileNearestRank pins the delta record's estimator: the
// p-quantile of n samples is the nearest-rank order statistic, the
// ceil(p*n)-th smallest.
func TestExactQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 0.5, 1}, {1, 0.99, 1},
		{6, 0.5, 3}, {6, 0.99, 6},
		{20, 0.5, 10}, {20, 0.99, 20},
		{100, 0.5, 50}, {100, 0.99, 99},
	} {
		// Samples n..1, so the k-th smallest is k and the sort matters.
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i)
		}
		if got := exactQuantile(xs, tc.p); got != tc.want {
			t.Errorf("n=%d p=%v: got the %vth smallest, want the %vth", tc.n, tc.p, got, tc.want)
		}
	}
}
