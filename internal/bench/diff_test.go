package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// loadDiffFixtures reads the committed report pair covering every
// verdict class: unchanged, regressed (wall), improved, drift,
// regressed (status), removed, and added.
func loadDiffFixtures(t *testing.T) (*Report, *Report) {
	t.Helper()
	old, err := ReadReport(filepath.Join("testdata", "diff", "BENCH_20260801T000000Z.json"))
	if err != nil {
		t.Fatal(err)
	}
	new, err := ReadReport(filepath.Join("testdata", "diff", "BENCH_20260802T000000Z.json"))
	if err != nil {
		t.Fatal(err)
	}
	return old, new
}

func TestCompareReportsClassification(t *testing.T) {
	old, new := loadDiffFixtures(t)
	d := CompareReports(old, new, DiffOptions{})
	if d.HostMismatch {
		t.Fatal("fixtures share a host; HostMismatch set")
	}
	if d.Improved != 1 || d.Unchanged != 3 || d.Regressed != 2 || d.Added != 1 || d.Removed != 1 || d.Drifted != 1 {
		t.Fatalf("verdict totals wrong: %+v", d)
	}
	if !d.HasRegressions() {
		t.Fatal("regression pair reported clean")
	}
	byKey := map[string]RunDiff{}
	for _, r := range d.Runs {
		byKey[r.Key] = r
	}
	if v := byKey["c10/r100/s2"].Verdict; v != VerdictRegressed {
		t.Fatalf("wall regression classified %q", v)
	}
	if v := byKey["c10/r100/s3"].Verdict; v != VerdictImproved {
		t.Fatalf("wall improvement classified %q", v)
	}
	// 100 -> 104 ms is under both thresholds: noise.
	if v := byKey["c10/r300/s1"].Verdict; v != VerdictUnchanged {
		t.Fatalf("sub-threshold change classified %q", v)
	}
	// optimal -> limit regresses even though the wall clock improved.
	sr := byKey["c10/r200/s2"]
	if sr.Verdict != VerdictRegressed || sr.OldStatus != "optimal" || sr.NewStatus != "limit" {
		t.Fatalf("status regression: %+v", sr)
	}
	// Deterministic solver: node/iter movement is drift, not noise.
	dr := byKey["c10/r200/s1"]
	if dr.Verdict != VerdictUnchanged || !dr.SearchDrift || dr.OldNodes != 50 || dr.NewNodes != 60 {
		t.Fatalf("search drift: %+v", dr)
	}
	if byKey["c20/r100/s1"].Verdict != VerdictRemoved {
		t.Fatalf("removed run: %+v", byKey["c20/r100/s1"])
	}
	if byKey["c30/r100/s1"].Verdict != VerdictAdded {
		t.Fatalf("added run: %+v", byKey["c30/r100/s1"])
	}
	// Per-series aggregation covers aligned runs only: the 6 aligned
	// pairs all live in c10; the removed/added runs contribute nothing.
	if len(d.Series) != 1 || d.Series[0].Key != "c10" || d.Series[0].Runs != 6 {
		t.Fatalf("series aggregation: %+v", d.Series)
	}
	if !d.Series[0].Drifted() {
		t.Fatalf("series with a drifted run not flagged: %+v", d.Series[0])
	}
	if d.Series[0].Geomean <= 0 || d.GeomeanSpeedup <= 0 {
		t.Fatalf("geomean not populated: series %v overall %v", d.Series[0].Geomean, d.GeomeanSpeedup)
	}
	if d.ScaleMismatch {
		t.Fatalf("fixtures share a scale; ScaleMismatch set")
	}
}

// TestCompareReportsScaleMismatch: sweeps taken at different
// cmd/experiments scales solve different instances even when run keys
// align, so the diff must carry a warning.
func TestCompareReportsScaleMismatch(t *testing.T) {
	old, new := loadDiffFixtures(t)
	old.Config.Scale = "small"
	new.Config.Scale = "0.5"
	d := CompareReports(old, new, DiffOptions{})
	if !d.ScaleMismatch || d.OldScale != "small" || d.NewScale != "0.5" {
		t.Fatalf("scale mismatch not reported: %+v", d)
	}
	var buf bytes.Buffer
	if err := d.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("WARNING: workload scale differs")) {
		t.Fatalf("render missing scale warning:\n%s", buf.String())
	}
}

func TestCompareReportSelfIsClean(t *testing.T) {
	old, _ := loadDiffFixtures(t)
	d := CompareReports(old, old, DiffOptions{})
	if d.HasRegressions() || d.Improved != 0 || d.Added != 0 || d.Removed != 0 || d.Drifted != 0 {
		t.Fatalf("self-comparison not clean: %+v", d)
	}
	if d.Unchanged != 7 {
		t.Fatalf("self-comparison aligned %d runs, want 7", d.Unchanged)
	}
	for _, s := range d.Series {
		if s.Drifted() {
			t.Fatalf("self-comparison series drifted: %+v", s)
		}
	}
}

// TestCompareReportsOldWorkerSeries: a committed report from when the
// sweep repeated per worker count holds each c/r/s key once per count.
// It still diffs, as its first series, which ran one worker.
func TestCompareReportsOldWorkerSeries(t *testing.T) {
	rep, err := ReadReport(filepath.Join("..", "..", "BENCH_20260805T141853Z.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for _, sr := range rep.Series {
		for _, p := range sr.Points {
			for _, run := range p.Runs {
				if run.Workers == 1 {
					want[runKey(sr.Capacity, p.Rules, run.Seed)] = run.WallMS
				}
			}
		}
	}
	d := CompareReports(rep, rep, DiffOptions{})
	if d.HasRegressions() || d.Unchanged != len(want) || len(d.Runs) != len(want) || len(want) != 12 {
		t.Fatalf("self-diff aligned %d runs (%+v), want the %d worker-1 runs", len(d.Runs), d.Tally, len(want))
	}
	for _, r := range d.Runs {
		//lint:exactfloat the aligned run is the worker-1 record itself
		if w, ok := want[r.Key]; !ok || r.OldWallMS != w || r.NewWallMS != w {
			t.Errorf("%s aligned %.3f -> %.3f ms, want the worker-1 run's %.3f", r.Key, r.OldWallMS, r.NewWallMS, w)
		}
	}
}

func TestDiffRenderGolden(t *testing.T) {
	old, new := loadDiffFixtures(t)
	var buf bytes.Buffer
	if err := CompareReports(old, new, DiffOptions{}).Render(&buf); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "diff", "golden.txt")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("render drifted from golden (re-run with -update if intended):\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestLatestPair(t *testing.T) {
	oldPath, newPath, err := LatestPair(filepath.Join("testdata", "diff"))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(oldPath) != "BENCH_20260801T000000Z.json" || filepath.Base(newPath) != "BENCH_20260802T000000Z.json" {
		t.Fatalf("pair = %s, %s", oldPath, newPath)
	}
	if _, _, err := LatestPair(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}

	// A rulefit-load/v1 report shares the BENCH_*.json glob and sorts
	// after the dated bench reports; it must be skipped, not paired.
	mixed := t.TempDir()
	for name, schema := range map[string]string{
		"BENCH_20260801T000000Z.json":       ReportSchema,
		"BENCH_20260802T000000Z.json":       ReportSchema,
		"BENCH_delta_20260803T000000Z.json": "rulefit-load/v1",
	} {
		if err := os.WriteFile(filepath.Join(mixed, name), []byte(`{"schema":"`+schema+`"}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	oldPath, newPath, err = LatestPair(mixed)
	if err != nil || filepath.Base(oldPath) != "BENCH_20260801T000000Z.json" || filepath.Base(newPath) != "BENCH_20260802T000000Z.json" {
		t.Fatalf("mixed-schema pair = %s, %s (%v)", oldPath, newPath, err)
	}
	if err := os.Remove(filepath.Join(mixed, "BENCH_20260801T000000Z.json")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LatestPair(mixed); err == nil {
		t.Fatal("one bench report plus a load report accepted as a pair")
	}
}

func TestReadReportRejectsWrongSchema(t *testing.T) {
	p := filepath.Join(t.TempDir(), "BENCH_bad.json")
	if err := os.WriteFile(p, []byte(`{"schema":"rulefit-bench/v999"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(p); err == nil {
		t.Fatal("wrong schema accepted")
	}
}
