package load

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rulefit/internal/bench"
	"rulefit/internal/daemon"
	"rulefit/internal/obs"
	"rulefit/internal/spec"
)

// syncBuffer is a mutex-wrapped buffer safe for concurrent slog
// writes from daemon handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon mounts a fresh daemon on an httptest server and returns
// its base URL plus the captured log buffer.
func startDaemon(t *testing.T, cfg daemon.Config) (string, *syncBuffer) {
	t.Helper()
	logs := &syncBuffer{}
	cfg.Logger = slog.New(slog.NewJSONHandler(logs, nil))
	cfg.Metrics = &obs.Metrics{}
	srv := httptest.NewServer(daemon.New(cfg).Handler())
	t.Cleanup(srv.Close)
	return srv.URL, logs
}

func TestBuildWorkloadDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Requests: 6}
	a, err := BuildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same config, fingerprints differ: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	for i := range a.Items {
		if !bytes.Equal(a.Items[i].Body, b.Items[i].Body) {
			t.Fatalf("item %d bodies differ", i)
		}
	}
	c, err := BuildWorkload(Config{Seed: 8, Requests: 6})
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint == a.Fingerprint {
		t.Fatalf("different seeds produced the same fingerprint %s", a.Fingerprint)
	}
	for _, item := range a.Items {
		if item.Stratum == "" || item.Rules <= 0 {
			t.Fatalf("item %d missing identity: %+v", item.Index, item)
		}
	}
}

// TestByteIdentityHTTPVsInProcess is the core identity guarantee: a
// placement served over HTTP must hash (and byte-compare) identically
// to the in-process placement of the same workload item.
func TestByteIdentityHTTPVsInProcess(t *testing.T) {
	base, _ := startDaemon(t, daemon.Config{MaxInFlight: 2})
	cfg := Config{Seed: 11, Requests: 5, Concurrency: 2}

	httpRep, err := Run(context.Background(), cfg, NewHTTPPlacer(base, nil))
	if err != nil {
		t.Fatal(err)
	}
	inRep, err := Run(context.Background(), cfg, NewInProcessPlacer(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if httpRep.Total != inRep.Total || httpRep.OK != inRep.OK {
		t.Fatalf("outcome mismatch: http %d/%d ok, inprocess %d/%d ok",
			httpRep.OK, httpRep.Total, inRep.OK, inRep.Total)
	}
	if httpRep.OK == 0 {
		t.Fatal("no successful requests; identity check is vacuous")
	}
	for i := range httpRep.Requests {
		h, p := httpRep.Requests[i], inRep.Requests[i]
		if h.PlacementHash != p.PlacementHash {
			t.Errorf("request %d: http hash %s != inprocess hash %s", i, h.PlacementHash, p.PlacementHash)
		}
		if h.Status != p.Status {
			t.Errorf("request %d: http status %s != inprocess status %s", i, h.Status, p.Status)
		}
	}
	if httpRep.Workload.Fingerprint != inRep.Workload.Fingerprint {
		t.Fatalf("fingerprints differ for identical configs")
	}
}

// TestPlacersRefuseInvalidProblems: a problem that parses and builds
// but fails core.Problem.Validate — two policies on one ingress, or a
// policy on an ingress with no routing — is the client's fault on both
// placers: 400 bad_request, in-process as over HTTP.
func TestPlacersRefuseInvalidProblems(t *testing.T) {
	base, _ := startDaemon(t, daemon.Config{MaxInFlight: 1})
	wl, err := BuildWorkload(Config{Seed: 3, Requests: 1})
	if err != nil {
		t.Fatal(err)
	}
	var req daemon.PlaceRequest
	if err := json.Unmarshal(wl.Items[0].Body, &req); err != nil {
		t.Fatal(err)
	}
	var desc spec.Problem
	if err := json.Unmarshal(req.Problem, &desc); err != nil {
		t.Fatal(err)
	}
	extra := desc.Policies[0]
	unrouted := extra
	unrouted.Ingress = 1 << 20
	for name, pol := range map[string]spec.Policy{"duplicate ingress": extra, "unrouted ingress": unrouted} {
		d := desc
		d.Policies = append(append([]spec.Policy(nil), desc.Policies...), pol)
		probJSON, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(daemon.PlaceRequest{Problem: probJSON, Options: req.Options})
		if err != nil {
			t.Fatal(err)
		}
		item := WorkItem{Body: body}
		for placer, p := range map[string]Placer{"http": NewHTTPPlacer(base, nil), "in-process": NewInProcessPlacer(0, 0)} {
			if res := p.Place(context.Background(), item); res.Code != http.StatusBadRequest || res.Status != "bad_request" {
				t.Errorf("%s, %s placer: %d %s (%s), want 400 bad_request", name, placer, res.Code, res.Status, res.Err)
			}
		}
	}
}

// TestTraceIDJoin proves the 1:1 join between the client report and
// the daemon's request log: every report record's trace ID appears in
// exactly one daemon log line, and the joined line agrees on the
// outcome.
func TestTraceIDJoin(t *testing.T) {
	base, logs := startDaemon(t, daemon.Config{MaxInFlight: 2})
	rep, err := Run(context.Background(), Config{Seed: 3, Requests: 6, Concurrency: 2},
		NewHTTPPlacer(base, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 6 {
		t.Fatalf("total = %d, want 6", rep.Total)
	}

	type logLine struct {
		TraceID string `json:"trace_id"`
		Status  string `json:"status"`
	}
	byTrace := map[string]int{}
	statusByTrace := map[string]string{}
	for _, raw := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var ll logLine
		if err := json.Unmarshal([]byte(raw), &ll); err != nil || ll.TraceID == "" {
			continue
		}
		byTrace[ll.TraceID]++
		statusByTrace[ll.TraceID] = ll.Status
	}
	for _, req := range rep.Requests {
		if req.TraceID == "" {
			t.Fatalf("request %d has no trace ID", req.Index)
		}
		if n := byTrace[req.TraceID]; n != 1 {
			t.Errorf("trace %s appears in %d daemon log lines, want 1", req.TraceID, n)
		}
		if got := statusByTrace[req.TraceID]; got != req.Status {
			t.Errorf("trace %s: daemon logged status %q, report has %q", req.TraceID, got, req.Status)
		}
	}
	if len(byTrace) != rep.Total {
		t.Errorf("daemon logged %d distinct traces, report has %d requests", len(byTrace), rep.Total)
	}
}

// TestSweepKneeReproducible is the end-to-end determinism check: a
// daemon with one solve slot, no queue, and a solve delay long enough
// to dominate arrival skew sheds every extra wave member, so two
// sweeps of the same seed land on the same knee (1).
func TestSweepKneeReproducible(t *testing.T) {
	base, _ := startDaemon(t, daemon.Config{
		MaxInFlight: 1,
		MaxQueue:    0,
		SolveDelay:  30 * time.Millisecond,
	})
	cfg := Config{Seed: 5, Requests: 4}
	opts := SweepOpts{ShedThreshold: 0.5, StepRequests: 4, MaxConcurrency: 4}

	runs := make([]*Report, 2)
	for i := range runs {
		rep, err := RunSweep(context.Background(), cfg, opts, NewHTTPPlacer(base, nil))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sweep == nil {
			t.Fatal("sweep report missing sweep record")
		}
		runs[i] = rep
	}
	for i, rep := range runs {
		if !rep.Sweep.Saturated {
			t.Fatalf("run %d never saturated; steps: %+v", i, rep.Sweep.Steps)
		}
		if rep.Sweep.KneeConcurrency != 1 {
			t.Errorf("run %d knee = %d, want 1; steps: %+v", i, rep.Sweep.KneeConcurrency, rep.Sweep.Steps)
		}
	}
	if a, b := runs[0].Sweep.KneeConcurrency, runs[1].Sweep.KneeConcurrency; a != b {
		t.Fatalf("knees differ across identical sweeps: %d vs %d", a, b)
	}
	if runs[0].Config.Mode != "sweep" {
		t.Errorf("mode = %q, want sweep", runs[0].Config.Mode)
	}
}

// TestSelfDiffPasses runs one report against itself through the full
// comparator: zero regressions, zero drift, PASS trailer.
func TestSelfDiffPasses(t *testing.T) {
	rep, err := Run(context.Background(), Config{Seed: 9, Requests: 4},
		NewInProcessPlacer(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	d := CompareReports(rep, rep, bench.DiffOptions{})
	if d.HasRegressions() {
		t.Fatalf("self-diff reports regressions: %+v", d)
	}
	if d.Unchanged != rep.Total {
		t.Errorf("unchanged = %d, want %d", d.Unchanged, rep.Total)
	}
	if d.Drifted != 0 || d.WorkloadMismatch {
		t.Errorf("self-diff drift=%d workloadMismatch=%v", d.Drifted, d.WorkloadMismatch)
	}
	var buf bytes.Buffer
	if err := d.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "RESULT: PASS") {
		t.Errorf("render missing PASS trailer:\n%s", buf.String())
	}
}

func TestCompareReportsFlagsDriftAndKnee(t *testing.T) {
	mk := func() *Report {
		return &Report{
			Envelope: bench.Envelope{Schema: ReportSchema},
			Workload: WorkloadRecord{Fingerprint: "f"},
			Config:   ConfigRecord{Mode: "closed"},
			Requests: []RequestRecord{
				{Index: 0, Seed: 1, Status: "optimal", WallMS: 10, PlacementHash: "aaa"},
				{Index: 1, Seed: 2, Status: "optimal", WallMS: 10, PlacementHash: "bbb"},
			},
		}
	}
	old, new := mk(), mk()
	new.Requests[1].PlacementHash = "ccc"
	d := CompareReports(old, new, bench.DiffOptions{})
	if d.Drifted != 1 || !d.HasRegressions() {
		t.Fatalf("placement drift not flagged: %+v", d)
	}
	var buf bytes.Buffer
	_ = d.Render(&buf)
	if !strings.Contains(buf.String(), "drift") || !strings.Contains(buf.String(), "RESULT: FAIL") {
		t.Errorf("render missing drift/FAIL:\n%s", buf.String())
	}

	// Status rank change trumps the wall clock (shared bench model).
	old, new = mk(), mk()
	new.Requests[0].Status = "limit"
	d = CompareReports(old, new, bench.DiffOptions{})
	if d.Regressed != 1 {
		t.Fatalf("status regression not flagged: %+v", d)
	}

	// A lower sweep knee is a capacity regression.
	old, new = mk(), mk()
	old.Sweep = &SweepRecord{KneeConcurrency: 8}
	new.Sweep = &SweepRecord{KneeConcurrency: 4}
	d = CompareReports(old, new, bench.DiffOptions{})
	if !d.KneeRegressed || !d.HasRegressions() {
		t.Fatalf("knee regression not flagged: %+v", d)
	}

	// Cross-workload comparisons refuse to report drift.
	old, new = mk(), mk()
	new.Workload.Fingerprint = "g"
	new.Requests[0].PlacementHash = "zzz"
	d = CompareReports(old, new, bench.DiffOptions{})
	if !d.WorkloadMismatch || d.Drifted != 0 {
		t.Fatalf("cross-workload drift handling wrong: %+v", d)
	}
}

// TestRunShedAgainstTinyDaemon exercises the closed-loop harness
// against a saturated daemon: with one slot, no queue, and a hold
// time, some of 3 concurrent workers' requests must shed, and the
// report's outcome counts must stay consistent.
func TestRunShedAgainstTinyDaemon(t *testing.T) {
	base, _ := startDaemon(t, daemon.Config{
		MaxInFlight: 1,
		MaxQueue:    0,
		SolveDelay:  10 * time.Millisecond,
	})
	rep, err := Run(context.Background(), Config{Seed: 2, Requests: 6, Concurrency: 3},
		NewHTTPPlacer(base, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 6 || rep.OK+rep.Shed+rep.Errors != rep.Total {
		t.Fatalf("inconsistent counts: %+v", rep)
	}
	if rep.Shed == 0 {
		t.Fatalf("expected shedding at concurrency 3 against a 1-slot daemon: %+v", rep)
	}
	for _, req := range rep.Requests {
		if req.Status == "shed" && req.Code != 429 {
			t.Errorf("shed request %d has code %d, want 429", req.Index, req.Code)
		}
	}
}

// TestOpenLoopRun drives the open-loop pacer and checks it issues the
// full workload with per-request records intact.
func TestOpenLoopRun(t *testing.T) {
	rep, err := Run(context.Background(), Config{Seed: 4, Requests: 4, RPS: 500},
		NewInProcessPlacer(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Config.Mode != "open" {
		t.Errorf("mode = %q, want open", rep.Config.Mode)
	}
	if rep.Total != 4 {
		t.Errorf("total = %d, want 4", rep.Total)
	}
}

// TestLiveStatusLines checks the one-line-per-interval status stream.
func TestLiveStatusLines(t *testing.T) {
	var status syncBuffer
	_, err := Run(context.Background(), Config{
		Seed:           6,
		Requests:       8,
		Repeat:         4,
		Concurrency:    2,
		Status:         &status,
		StatusInterval: 5 * time.Millisecond,
	}, slowPlacer{delay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	out := status.String()
	if !strings.Contains(out, "rps=") || !strings.Contains(out, "p99=") {
		t.Errorf("status stream missing fields:\n%s", out)
	}
}

// slowPlacer fakes a placer with a fixed service time, for driving
// the status loop without a solver.
type slowPlacer struct {
	delay time.Duration
}

func (p slowPlacer) Place(_ context.Context, item WorkItem) Result {
	time.Sleep(p.delay)
	return Result{Code: 200, Status: "optimal", WallMS: float64(p.delay.Microseconds()) / 1e3,
		TraceID: "req-fake", PlacementHash: "fixed"}
}

// TestReportRoundTrip writes a report and reads it back through the
// schema check.
func TestReportRoundTrip(t *testing.T) {
	rep, err := Run(context.Background(), Config{Seed: 1, Requests: 2}, NewInProcessPlacer(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rep.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload.Fingerprint != rep.Workload.Fingerprint {
		t.Errorf("fingerprint lost in round trip")
	}

	bad := bytes.Replace(buf.Bytes(), []byte(ReportSchema), []byte("rulefit-load/v0"), 1)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(path); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
}
