package load

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"rulefit/internal/bench"
	"rulefit/internal/obs"
)

// unmarshalStrict decodes with unknown fields rejected, so the round
// trip also proves the golden file has no stray keys.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenHist is a small fixed latency histogram used across the
// golden report.
func goldenHist(counts ...uint64) obs.HistogramSnapshot {
	h := obs.HistogramSnapshot{Sum: 0.042, Count: 0}
	bounds := []float64{0.001, 0.01, math.Inf(1)}
	for i, b := range bounds {
		c := uint64(0)
		if i < len(counts) {
			c = counts[i]
		}
		h.Buckets = append(h.Buckets, obs.BucketCount{LE: b, Count: c})
		h.Count = c
	}
	return h
}

// goldenReport is a fully-populated Report with fixed values: every
// field of every record type appears, so the golden file pins the
// complete rulefit-load/v1 wire format. cmd/benchdiff and the smoke
// stage of scripts/check.sh parse these files; a silently renamed JSON
// tag breaks them without failing any harness test, which is what this
// test exists to catch. If the diff is intentional, bump ReportSchema
// (incompatible change) or rerun with -update (compatible addition).
func goldenReport() *Report {
	return &Report{
		Envelope: bench.Envelope{
			Schema:     ReportSchema,
			Timestamp:  "2026-01-02T03:04:05Z",
			GoVersion:  "go1.22.0",
			GOOS:       "linux",
			GOARCH:     "amd64",
			NumCPU:     8,
			GOMAXPROCS: 8,
		},
		Config: ConfigRecord{
			Seed:         7,
			Requests:     4,
			Repeat:       2,
			Concurrency:  2,
			RPS:          50,
			DurationSec:  1.5,
			Merging:      true,
			TimeLimitSec: 30,
			Mode:         "open",
			Target:       "http",
		},
		Workload: WorkloadRecord{
			Seed:        7,
			Requests:    4,
			Fingerprint: "78f868b603b0a068",
		},
		ElapsedSec:  1.25,
		AchievedRPS: 6.4,
		Total:       8,
		OK:          6,
		Shed:        1,
		Errors:      1,
		Latency:     goldenHist(2, 5, 8),
		P50MS:       1.2,
		P90MS:       4.5,
		P99MS:       9.1,
		P999MS:      9.9,
		Strata: []StratumRecord{{
			Stratum:  "small",
			Requests: 5,
			Latency:  goldenHist(2, 4, 5),
		}, {
			Stratum:  "medium",
			Requests: 3,
			Latency:  goldenHist(0, 1, 3),
		}},
		Requests: []RequestRecord{{
			Index:         0,
			Seed:          7,
			Stratum:       "small",
			TraceID:       "req-000001-82a9f4a52737d108",
			Code:          200,
			Status:        "optimal",
			WallMS:        1.25,
			PlacementHash: "3f1e83fcdbc4a2ec",
			Phases: []PhaseMS{
				{Name: "queue_wait", MS: 0.01},
				{Name: "parse", MS: 0.2},
				{Name: "encode", MS: 0.1},
				{Name: "model_build", MS: 0.05},
				{Name: "solve", MS: 0.6},
				{Name: "extract", MS: 0.02},
			},
		}, {
			Index:   1,
			Seed:    108,
			Stratum: "medium",
			TraceID: "req-000002-1111111111111111",
			Code:    429,
			Status:  "shed",
			WallMS:  0.4,
			Error:   "server at capacity",
		}},
		Sweep: &SweepRecord{
			ShedThreshold:   0.5,
			StepRequests:    8,
			MaxConcurrency:  64,
			KneeConcurrency: 4,
			CapacityRPS:     120.5,
			Saturated:       true,
			Steps: []SweepStep{{
				Concurrency: 4,
				Requests:    8,
				Shed:        0,
				ShedRate:    0,
				AchievedRPS: 120.5,
			}, {
				Concurrency: 8,
				Requests:    8,
				Shed:        4,
				Errors:      1,
				ShedRate:    0.5,
				AchievedRPS: 130,
			}},
		},
	}
}

// TestReportGolden locks the serialized form of the load report — the
// schema string, every JSON field name, and the encoder settings —
// against testdata/report_golden.json.
func TestReportGolden(t *testing.T) {
	if ReportSchema != "rulefit-load/v1" {
		t.Fatalf("ReportSchema = %q; committed load reports say rulefit-load/v1", ReportSchema)
	}
	var buf bytes.Buffer
	if err := goldenReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report serialization drifted from %s.\n"+
			"If this is an intentional compatible addition, rerun with -update; "+
			"if a field was renamed or removed, bump ReportSchema instead.\n"+
			"got:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}

// TestReportGoldenRoundTrip: the golden file parses back strictly into
// a Report equal in its load-bearing fields, so readers of committed
// load reports can rely on the struct definitions in this package.
func TestReportGoldenRoundTrip(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "report_golden.json"))
	if err != nil {
		t.Skip("golden file missing; TestReportGolden reports the failure")
	}
	var rep Report
	if err := unmarshalStrict(data, &rep); err != nil {
		t.Fatalf("golden file does not parse strictly: %v", err)
	}
	want := goldenReport()
	if rep.Schema != want.Schema || rep.Timestamp != want.Timestamp {
		t.Errorf("header drift: %q %q", rep.Schema, rep.Timestamp)
	}
	if rep.Config != want.Config || rep.Workload != want.Workload {
		t.Errorf("config/workload drift:\ngot  %+v %+v\nwant %+v %+v",
			rep.Config, rep.Workload, want.Config, want.Workload)
	}
	if len(rep.Requests) != 2 {
		t.Fatalf("request shape drifted: %+v", rep.Requests)
	}
	if rep.Requests[0].TraceID != want.Requests[0].TraceID ||
		rep.Requests[0].PlacementHash != want.Requests[0].PlacementHash ||
		len(rep.Requests[0].Phases) != len(want.Requests[0].Phases) {
		t.Errorf("request record drifted:\ngot  %+v\nwant %+v", rep.Requests[0], want.Requests[0])
	}
	if rep.Sweep == nil || rep.Sweep.KneeConcurrency != want.Sweep.KneeConcurrency ||
		len(rep.Sweep.Steps) != 2 || rep.Sweep.Steps[1] != want.Sweep.Steps[1] {
		t.Errorf("sweep record drifted: %+v", rep.Sweep)
	}
}
