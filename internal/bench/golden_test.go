package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rulefit/internal/ilp"
)

// unmarshalStrict decodes with unknown fields rejected, so the round
// trip also proves the golden file has no stray keys.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenReport is a fully-populated Report with fixed values: every
// field of every record type appears, so the golden file pins the
// complete rulefit-bench/v1 wire format. Cross-PR comparison tools
// parse these files; a silently renamed JSON tag breaks them without
// failing any solver test, which is exactly what this test exists to
// catch. If the diff is intentional, bump ReportSchema (incompatible
// change) or rerun with -update (compatible addition) per the schema
// comment in report.go.
func goldenReport() *Report {
	return &Report{
		Envelope: Envelope{
			Schema:     ReportSchema,
			Timestamp:  "2026-01-02T03:04:05Z",
			GoVersion:  "go1.22.0",
			GOOS:       "linux",
			GOARCH:     "amd64",
			NumCPU:     8,
			GOMAXPROCS: 8,
		},
		Config: ReportConfig{
			K:               4,
			HostsPerEdge:    1,
			Ingresses:       4,
			PathsPerIngress: 2,
			RuleCounts:      []int{40, 80},
			Capacities:      []int{60, 100},
			Seeds:           2,
			Merging:         true,
			TimeLimitSec:    30,
			Parallel:        4,
			WorkerCounts:    []int{1, 4},
			Scale:           "small",
		},
		Series: []SeriesRecord{{
			Workers:  1,
			Capacity: 60,
			Points: []PointRecord{{
				Rules:  40,
				MeanMS: 12.5,
				MinMS:  10,
				MaxMS:  15,
				Runs: []RunRecord{{
					Seed:        1,
					Status:      "OPTIMAL",
					WallMS:      10,
					TotalRules:  37,
					Variables:   120,
					Constraints: 260,
					SolvePath:   "fallback",
					Stats: ilp.Stats{
						BnBNodes:          9,
						SimplexIters:      431,
						Workers:           1,
						LURefactors:       3,
						Branched:          4,
						PrunedBound:       2,
						PrunedInfeasible:  1,
						IntegralLeaves:    2,
						LostSubtrees:      0,
						PrunedStale:       1,
						Incumbents:        2,
						StrongBranchEvals: 12,
						WarmStartReuses:   7,
						StopReason:        ilp.StopNone,
						BestBound:         37,
						Gap:               0,
					},
				}, {
					Seed:       102,
					Status:     "LIMIT",
					WallMS:     15,
					TotalRules: 41,
					SolvePath:  "joint",
					Stats: ilp.Stats{
						BnBNodes: 64,
						Workers:  1,
						Branched: 32, PrunedBound: 20, PrunedInfeasible: 6,
						IntegralLeaves: 5, LostSubtrees: 1,
						Incumbents: 1,
						StopReason: ilp.StopDeadline,
						BestBound:  39.5,
						Gap:        0.0379746835443038,
					},
				}},
			}},
		}},
		Speedups: []SpeedupRecord{{
			Workers:         4,
			BaselineWorkers: 1,
			TotalMS:         80,
			BaselineMS:      200,
			Speedup:         2.5,
		}},
	}
}

// TestReportGolden locks the serialized form of the bench report — the
// schema string, every JSON field name, and the encoder settings —
// against testdata/report_golden.json.
func TestReportGolden(t *testing.T) {
	if ReportSchema != "rulefit-bench/v1" {
		t.Fatalf("ReportSchema = %q; committed BENCH_*.json files say rulefit-bench/v1", ReportSchema)
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

// TestReportGoldenRoundTrip: the golden file parses back into a Report
// equal in its load-bearing fields, so readers of committed BENCH files
// can rely on the struct definitions in this package.
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
	if len(rep.Series) != 1 || len(rep.Series[0].Points) != 1 || len(rep.Series[0].Points[0].Runs) != 2 {
		t.Fatalf("series shape drifted: %+v", rep.Series)
	}
	got := rep.Series[0].Points[0].Runs[0]
	exp := want.Series[0].Points[0].Runs[0]
	if got != exp {
		t.Errorf("run record drifted:\ngot  %+v\nwant %+v", got, exp)
	}
	if len(rep.Speedups) != 1 || rep.Speedups[0] != want.Speedups[0] {
		t.Errorf("speedup record drifted: %+v", rep.Speedups)
	}
}
