package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rulefit/internal/daemon"
)

// daemonBin is a ruleplaced built from this checkout for the smoke runs.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonBin = filepath.Join(dir, "ruleplaced")
	build := exec.Command("go", "build", "-o", daemonBin, "./cmd/ruleplaced")
	build.Dir = ".."
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building ruleplaced:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkSpec is the part of BENCHMARK.json the smoke runs check.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs one pass of each workload in both modes and checks
// the printed result against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec := loadBenchmarkSpec(t)
	for _, w := range []string{mergeGrid, sessionDelta, fig7Tight} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				if w == fig7Tight && testing.Short() {
					t.Skip("a fig7-tight pass takes about 35 s")
				}
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w, "--daemon", daemonBin, "--seed", "1",
					"--seconds", "1", "--trace", trace, "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
					}
				}
				if !res.Correct || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d\n%s", res.Correct, res.Attempted, stdout.String())
				}
				if !strings.Contains(stdout.String(), "self-test: both tampered answers refused") {
					t.Errorf("tampered-answer self-test did not report\n%s", stdout.String())
				}
				wantFailed := 0
				if w == fig7Tight {
					wantFailed = 1
					if !strings.Contains(stdout.String(), "failed: c25/r30/s101") {
						t.Errorf("c25/r30/s101 not reported as failed\n%s", stdout.String())
					}
				}
				if res.Failed != wantFailed {
					t.Errorf("failed = %d, want %d\n%s", res.Failed, wantFailed, stdout.String())
				}
			})
		}
	}
	for _, w := range spec.Workloads {
		if _, err := newPlan(w.Name, 1, 1); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}
}

// TestCheckerRefusesTamperedAnswers solves merge-grid cells in-process
// and checks that clean answers pass and tampered ones are wrong.
func TestCheckerRefusesTamperedAnswers(t *testing.T) {
	p, err := newPlan(mergeGrid, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range p.order {
		it := p.items[idx]
		if it.name != "m1/c9/off" && it.name != "m1/c9/merge" {
			continue
		}
		pl, err := placeItem(it)
		if err != nil {
			t.Fatal(err)
		}
		wire := daemon.EncodePlacement(pl)
		reply := func(pl daemon.Placement) answer {
			body, err := json.Marshal(daemon.PlaceResponse{Placement: pl})
			if err != nil {
				t.Fatal(err)
			}
			return answer{code: http.StatusOK, body: body}
		}
		if o := c.check(i, reply(wire)); o.failed {
			t.Fatalf("%s: clean answer refused: %s", it.name, o.reason)
		}
		offByOne := wire
		offByOne.TotalRules++
		if o := c.check(i, reply(offByOne)); !o.wrong {
			t.Errorf("%s: total_rules off by one accepted", it.name)
		}
		if !it.merging {
			dropped, ok := dropFirstRule(wire)
			if !ok {
				t.Fatalf("%s places no rule", it.name)
			}
			if o := c.check(i, reply(dropped)); !o.wrong {
				t.Errorf("%s: dropped rule switches accepted", it.name)
			}
		}
		if o := c.check(i, answer{code: http.StatusTooManyRequests}); !o.failed || o.wrong {
			t.Errorf("%s: a 429 must count as failed, not wrong: %+v", it.name, o)
		}
	}
}

// TestEditStream checks that every edit applies, that policy sizes
// stay near 100, and that a revert restores the instance two edits
// back, so the session answers it from the identity memo.
func TestEditStream(t *testing.T) {
	p, err := newPlan(sessionDelta, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	cur := p.base.Clone()
	var history [][]byte
	kinds := map[string]int{}
	for i, e := range append(p.warmEdits, p.edits...) {
		history = append(history, cur.Canonical())
		if err := cur.ApplyAll(e.deltas); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		kinds[e.kind]++
		if e.kind == "revert" && !bytes.Equal(cur.Canonical(), history[len(history)-2]) {
			t.Fatalf("edit %d: revert did not restore the earlier instance", i)
		}
		for _, pol := range cur.Policies {
			if n := len(pol.Rules); n < 94 || n > 106 {
				t.Fatalf("edit %d: policy %d has %d rules", i, pol.Ingress, n)
			}
		}
	}
	for _, k := range []string{"add", "remove", "flip", "capacity", "revert"} {
		if kinds[k] == 0 {
			t.Errorf("no %s edits in %v", k, kinds)
		}
	}
	q, err := newPlan(sessionDelta, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.edits {
		if !bytes.Equal(p.edits[i].body, q.edits[i].body) {
			t.Fatalf("edit %d differs between two plans from the same seed", i)
		}
	}
	other, err := newPlan(sessionDelta, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(other.edits[0].body, p.edits[0].body) && bytes.Equal(other.edits[1].body, p.edits[1].body) {
		t.Error("seeds 1 and 2 drew the same edits")
	}
}

func TestPercentiles(t *testing.T) {
	mk := func(n int) []sample {
		s := make([]sample, n)
		for i := range s {
			s[i] = sample{ms: float64(i + 1), item: "x"}
		}
		return s
	}
	if ms, pct, _ := tail(mk(9)); ms != 5 || pct != 50 {
		t.Errorf("9 samples: tail %v at p%v, want the median 5", ms, pct)
	}
	if ms, _, beyond := tail(mk(51)); ms != 41 || beyond != 10 {
		t.Errorf("51 samples: tail %v with %d beyond, want 41 with 10", ms, beyond)
	}
	if got := median(mk(4)); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	for seconds := 1; seconds <= 40; seconds++ {
		// 17 cells x passes: the tail rank must not be a cluster edge.
		passes := mergePasses(seconds)
		if pos := (17*passes - 11) % passes; passes > 1 && (pos == 0 || pos == passes-1) {
			t.Errorf("%d seconds -> %d passes: tail rank at a cluster edge", seconds, passes)
		}
	}
}
