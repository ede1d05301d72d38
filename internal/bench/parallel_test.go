package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// TestRunJobsMatchesSequential asserts the fan-out contract: a parallel
// sweep returns results at the same indices, and aggregation over them
// is identical to a sequential run (modulo wall-clock fields).
func TestRunJobsMatchesSequential(t *testing.T) {
	var cfgs []Config
	for i := 0; i < 6; i++ {
		cfg := tiny()
		cfg.Seed = int64(i)
		cfgs = append(cfgs, cfg)
	}
	strip := func(rs []Result) []Result {
		out := append([]Result(nil), rs...)
		for i := range out {
			out[i].Time = 0
		}
		return out
	}
	seq, err := runJobs(cfgs, 1, Run)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runJobs(cfgs, 4, Run)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(strip(seq), strip(par)) {
		t.Errorf("parallel results differ from sequential:\n%+v\nvs\n%+v", strip(seq), strip(par))
	}
}

// TestRunJobsFirstErrorByIndex pins the deterministic error contract:
// with several failing configs, the reported error is the one at the
// lowest index, regardless of completion order.
func TestRunJobsFirstErrorByIndex(t *testing.T) {
	cfgs := make([]Config, 8)
	f := func(cfg Config) (int, error) {
		if cfg.Seed%2 == 1 {
			return 0, fmt.Errorf("boom %d", cfg.Seed)
		}
		return int(cfg.Seed), nil
	}
	for i := range cfgs {
		cfgs[i].Seed = int64(i)
	}
	if _, err := runJobs(cfgs, 4, f); err == nil || err.Error() != "boom 1" {
		t.Errorf("err = %v, want boom 1 (first failing index)", err)
	}
}

// TestBuildReport exercises the machine-readable perf report end to end
// on a tiny sweep: schema, series layout, per-run counters, and the
// speedup summary must all be populated and JSON-round-trippable.
func TestBuildReport(t *testing.T) {
	base := tiny()
	base.Parallel = 2
	rep, err := BuildReport(base, []int{4, 6}, []int{50}, 2, []int{1, 2}, "small")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Config.Scale != "small" {
		t.Errorf("config scale = %q, want small", rep.Config.Scale)
	}
	if rep.NumCPU <= 0 || rep.GOMAXPROCS <= 0 || rep.GoVersion == "" {
		t.Errorf("host fields not populated: %+v", rep)
	}
	// 1 capacity x 2 worker counts.
	if len(rep.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(rep.Series))
	}
	for _, sr := range rep.Series {
		if len(sr.Points) != 2 {
			t.Fatalf("points = %d, want 2", len(sr.Points))
		}
		for _, p := range sr.Points {
			if len(p.Runs) != 2 {
				t.Fatalf("runs = %d, want 2 seeds", len(p.Runs))
			}
			for _, r := range p.Runs {
				if r.Status == "" || r.BnBNodes <= 0 || r.SimplexIters <= 0 || r.Workers != sr.Workers {
					t.Errorf("run not populated for workers=%d: %+v", sr.Workers, r)
				}
			}
		}
	}
	if len(rep.Speedups) != 1 || rep.Speedups[0].Workers != 2 || rep.Speedups[0].BaselineWorkers != 1 {
		t.Errorf("speedups = %+v", rep.Speedups)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Schema != rep.Schema || len(back.Series) != len(rep.Series) {
		t.Errorf("round-trip mismatch")
	}
}
