package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"rulefit/internal/core"
)

// TestRunJobsMatchesSequential asserts the sweep contract: runJobs
// returns each config's result at that config's index, the same result
// (modulo wall clock) as running the config alone.
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
	var alone []Result
	for _, cfg := range cfgs {
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		alone = append(alone, r)
	}
	swept, err := runJobs(cfgs, Run)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(strip(alone), strip(swept)) {
		t.Errorf("swept results differ from solo runs:\n%+v\nvs\n%+v", strip(swept), strip(alone))
	}
}

// TestRunJobsFirstErrorByIndex pins the deterministic error contract:
// with several failing configs, the reported error is the one at the
// lowest index.
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
	if _, err := runJobs(cfgs, f); err == nil || err.Error() != "boom 1" {
		t.Errorf("err = %v, want boom 1 (first failing index)", err)
	}
}

// TestBuildReport exercises the machine-readable perf report end to end
// on a tiny sweep: schema, series layout and per-run counters must all
// be populated and JSON-round-trippable. It runs a slack capacity,
// where every run is certified by counting, and a binding one (C=4),
// where some runs need a MILP.
func TestBuildReport(t *testing.T) {
	rep, err := BuildReport(tiny(), []int{4, 6}, []int{4, 50}, 2, "small")
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
	if len(rep.Series) != 2 {
		t.Fatalf("series = %d, want one per capacity", len(rep.Series))
	}
	var certified, milp int
	for _, sr := range rep.Series {
		if len(sr.Points) != 2 {
			t.Fatalf("points = %d, want 2", len(sr.Points))
		}
		for _, p := range sr.Points {
			if len(p.Runs) != 2 {
				t.Fatalf("runs = %d, want 2 seeds", len(p.Runs))
			}
			for _, r := range p.Runs {
				if r.SolvePath == string(core.SolveCertified) {
					// Proven by counting: no LP ran, and the bound is the total.
					certified++
					//lint:exactfloat a counting proof reports the exact 0 gap and an integral bound
					if r.Status != "optimal" || r.BnBNodes != 0 || r.SimplexIters != 0 || r.Workers != 0 ||
						r.Gap != 0 || r.BestBound != float64(r.TotalRules) {
						t.Errorf("certified run reports solver effort at c=%d: %+v", sr.Capacity, r)
					}
					continue
				}
				milp++
				if want := min(runtime.GOMAXPROCS(0), 16); r.Status == "" || r.SolvePath == "" ||
					r.BnBNodes <= 0 || r.SimplexIters <= 0 || r.Workers != want {
					t.Errorf("run not populated at c=%d (want %d workers): %+v", sr.Capacity, want, r)
				}
			}
		}
	}
	if certified == 0 || milp == 0 {
		t.Errorf("%d certified and %d MILP runs, want some of each", certified, milp)
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
