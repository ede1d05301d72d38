package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rulefit/internal/bench"
	"rulefit/internal/core"
	"rulefit/internal/obs"
	"rulefit/internal/routing"
	"rulefit/internal/spec"
	"rulefit/internal/topology"
)

// testSpec builds a small benchgen-style problem description (fat-tree,
// spread pairs, generated policies) and returns it as spec JSON.
func testSpec(t *testing.T, rules int) []byte {
	t.Helper()
	const k, capacity, hosts, ingresses, ppi = 4, 60, 2, 4, 4
	topo, err := topology.FatTree(k, capacity, hosts)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := routing.SpreadPairs(topo, ingresses, ppi, 7)
	if err != nil {
		t.Fatal(err)
	}
	desc := &spec.Problem{
		Topology: spec.Topology{Type: "fattree", K: k, Capacity: capacity, Hosts: hosts},
		Routing:  spec.Routing{Seed: 8},
	}
	seen := map[int]bool{}
	for _, p := range pairs {
		desc.Routing.Pairs = append(desc.Routing.Pairs, spec.Pair{In: int(p.In), Out: int(p.Out)})
		if !seen[int(p.In)] {
			seen[int(p.In)] = true
			desc.Policies = append(desc.Policies, spec.Policy{
				Ingress:  int(p.In),
				Generate: &spec.Gen{NumRules: rules, Seed: 7},
			})
		}
	}
	data, err := json.Marshal(desc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// quietLogger drops log output so tests don't spam stderr.
func quietLogger() *slog.Logger { return slog.New(slog.NewJSONHandler(io.Discard, nil)) }

// startDaemon runs a server on an ephemeral port and tears it down with
// the test.
func startDaemon(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s := New(cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("serve returned %v", err)
		}
	})
	return s, "http://" + s.Addr()
}

// postPlace sends one placement request and returns the HTTP status and
// raw body.
func postPlace(t *testing.T, base string, req PlaceRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/place", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// solveEndpoint is one of the daemon's three solve endpoints as a test
// input, so tests of the shared request pipeline run against all three.
type solveEndpoint struct {
	name string
	code int // success status
	// setup counts the requests prepare serves itself (the delta
	// endpoint's session create).
	setup int
	// prepare returns n solve requests for specJSON against the daemon
	// at base. Each delta request adds one more rule to the session.
	prepare func(t *testing.T, base string, specJSON []byte, n int) []solveRequest
}

// solveRequest is one prepared solve request.
type solveRequest struct {
	url  string
	body []byte
	// solves is the explicit instance the request solves when the
	// requests run in order.
	solves *spec.Problem
}

// solveEndpoints are /v1/place, /v1/session and /v1/session/{id}/delta,
// all solving under sessionOptions.
var solveEndpoints = []solveEndpoint{
	{name: "place", code: http.StatusOK, prepare: func(t *testing.T, base string, specJSON []byte, n int) []solveRequest {
		return placeRequests(t, base+"/v1/place", specJSON, n)
	}},
	{name: "session create", code: http.StatusCreated, prepare: func(t *testing.T, base string, specJSON []byte, n int) []solveRequest {
		return placeRequests(t, base+"/v1/session", specJSON, n)
	}},
	{name: "session delta", code: http.StatusOK, setup: 1, prepare: func(t *testing.T, base string, specJSON []byte, n int) []solveRequest {
		sr, _ := createSession(t, base, specJSON)
		cur := explicitSpec(t, specJSON)
		var out []solveRequest
		for i := 0; i < n; i++ {
			d := addRuleDelta(cur, 9001+i)
			body, err := json.Marshal(DeltaRequest{Deltas: []spec.Delta{d}})
			if err != nil {
				t.Fatal(err)
			}
			cur = cur.Clone()
			if err := cur.Apply(d); err != nil {
				t.Fatal(err)
			}
			out = append(out, solveRequest{base + "/v1/session/" + sr.SessionID + "/delta", body, cur})
		}
		return out
	}},
}

// placeRequests is n identical PlaceRequests for specJSON posted to url.
func placeRequests(t *testing.T, url string, specJSON []byte, n int) []solveRequest {
	t.Helper()
	body, err := json.Marshal(PlaceRequest{Problem: specJSON, Options: sessionOptions})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]solveRequest, n)
	for i := range out {
		out[i] = solveRequest{url, body, explicitSpec(t, specJSON)}
	}
	return out
}

// post sends one prepared solve request and returns the response, its
// body read and closed.
func (req solveRequest) post(t *testing.T) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(req.url, "application/json", bytes.NewReader(req.body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// inProcessPlacement solves sp through the shared decoder and
// core.Place, without the daemon, and returns its wire bytes: the
// byte-identity reference for a served placement.
func inProcessPlacement(t *testing.T, sp *spec.Problem) []byte {
	t.Helper()
	probJSON, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(PlaceRequest{Problem: probJSON, Options: sessionOptions})
	if err != nil {
		t.Fatal(err)
	}
	in, err := DecodePlaceRequest(body, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Place(in.Problem, in.Options)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(EncodePlacement(pl))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestDaemonMatchesInProcess is the transport half of the determinism
// contract: the placement served over HTTP is byte-identical to solving
// the same spec in-process, and replaying the request yields the same
// bytes again.
func TestDaemonMatchesInProcess(t *testing.T) {
	specJSON := testSpec(t, 12)
	_, base := startDaemon(t, Config{MaxInFlight: 2})
	req := PlaceRequest{
		Problem: specJSON,
		Options: RequestOptions{Merging: true, TimeLimitSec: 60},
	}
	code, body := postPlace(t, base, req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var got struct {
		TraceID   string          `json:"trace_id"`
		Placement json.RawMessage `json:"placement"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got.TraceID, "req-") {
		t.Fatalf("trace ID %q", got.TraceID)
	}

	// The same solve in-process, through the same wire projection.
	desc, err := spec.LoadBytes(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := desc.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Place(prob, core.Options{
		Merging: true, TimeLimit: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(EncodePlacement(pl))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got.Placement), want) {
		t.Fatalf("daemon placement differs from in-process:\n%s\nvs\n%s", got.Placement, want)
	}

	// Replay: identical placement bytes, and a trace ID with the same
	// content hash (only the sequence number advances).
	code2, body2 := postPlace(t, base, req)
	if code2 != http.StatusOK {
		t.Fatalf("replay status %d", code2)
	}
	var got2 struct {
		TraceID   string          `json:"trace_id"`
		Placement json.RawMessage `json:"placement"`
	}
	if err := json.Unmarshal(body2, &got2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Placement, got2.Placement) {
		t.Fatal("replayed placement differs")
	}
	hashOf := func(id string) string { return id[strings.LastIndex(id, "-"):] }
	if hashOf(got.TraceID) != hashOf(got2.TraceID) || got.TraceID == got2.TraceID {
		t.Fatalf("trace IDs %q, %q: want same body hash, distinct sequence", got.TraceID, got2.TraceID)
	}
}

// TestDaemonMetricsConformant scrapes /metrics after live traffic and
// validates the payload against the shared exposition checker.
func TestDaemonMetricsConformant(t *testing.T) {
	s, base := startDaemon(t, Config{MaxInFlight: 2})
	code, _ := postPlace(t, base, PlaceRequest{
		Problem: testSpec(t, 8),
		Options: RequestOptions{Merging: true, TimeLimitSec: 60},
	})
	if code != http.StatusOK {
		t.Fatalf("place status %d", code)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckPrometheusText(bytes.NewReader(payload)); err != nil {
		t.Fatalf("exposition not conformant: %v\n%s", err, payload)
	}
	out := string(payload)
	for _, want := range []string{
		`rulefit_requests_total{status="optimal",stop_reason="none"} 1`,
		"rulefit_installed_rules_count 1",
		"rulefit_in_flight_requests 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
	// The debug mux serves pprof and nothing else: /metrics,
	// /debug/solvez and /debug/flightz are the API mux's alone.
	get := func(h http.Handler, path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		if code := get(s.DebugHandler(), path); code != http.StatusOK {
			t.Fatalf("debug mux %s status %d", path, code)
		}
	}
	for _, path := range []string{"/metrics", "/debug/solvez", "/debug/flightz"} {
		if code := get(s.DebugHandler(), path); code != http.StatusNotFound {
			t.Fatalf("debug mux %s status %d, want 404", path, code)
		}
		if code := get(s.Handler(), path); code != http.StatusOK {
			t.Fatalf("API mux %s status %d", path, code)
		}
	}
}

// scrapeMetrics GETs /metrics and returns the exposition.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(payload)
}

// metricSamples reads an exposition's samples as a scraper does.
func metricSamples(t *testing.T, exposition string) map[string]float64 {
	t.Helper()
	samples, err := obs.PrometheusSamples(strings.NewReader(exposition))
	if err != nil {
		t.Fatalf("%v in:\n%s", err, exposition)
	}
	return samples
}

// metricValue reads one series' sample from an exposition.
func metricValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	v, ok := metricSamples(t, exposition)[series]
	if !ok {
		t.Fatalf("no series %s in:\n%s", series, exposition)
	}
	return v
}

// TestDaemonSolverCounters: a daemon's /metrics counts the solves it
// ran, folded from their events into the registry the daemon built
// for itself, and no other daemon's. An answer runs one solve, so the
// metrics equal the served stats: for a merging request, and for a
// merging-off request whose decomposition falls back to the joint
// MILP (Table II's m3/C=8 cell, where a policy fails the counting
// certificate).
func TestDaemonSolverCounters(t *testing.T) {
	_, other := startDaemon(t, Config{MaxInFlight: 1})
	prob, err := bench.Build(bench.Config{K: 4, Ingresses: 8, PathsPerIngress: 4, Rules: 8, Capacity: 8, Mergeable: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pl, err := core.Place(prob, core.Options{}); err != nil || pl.Stats.SolvePath != core.SolveFallback {
		t.Fatalf("m3/C=8 merging off: %v, want the %q path", err, core.SolveFallback)
	}
	fallbackSpec, err := json.Marshal(spec.FromCore(prob))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  PlaceRequest
	}{
		{"merging", PlaceRequest{Problem: testSpec(t, 8), Options: RequestOptions{Merging: true, TimeLimitSec: 60}}},
		{"fallback", PlaceRequest{Problem: fallbackSpec, Options: RequestOptions{TimeLimitSec: 60}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, base := startDaemon(t, Config{MaxInFlight: 1})
			code, body := postPlace(t, base, tc.req)
			if code != http.StatusOK {
				t.Fatalf("place status %d: %s", code, body)
			}
			var resp PlaceResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Placement.Status != "optimal" {
				t.Fatalf("placement status %q, want optimal", resp.Placement.Status)
			}
			out := scrapeMetrics(t, base)
			for _, c := range []struct {
				series string
				want   int
			}{
				{`rulefit_solves_total{status="optimal"}`, 1},
				{"rulefit_solve_nodes_sum", resp.Placement.Stats.Nodes},
				{"rulefit_solve_simplex_iters_sum", resp.Placement.Stats.SimplexIters},
				{"rulefit_solve_nodes_count", 1},
			} {
				if got := metricValue(t, out, c.series); got != float64(c.want) {
					t.Errorf("%s = %g, want %d", c.series, got, c.want)
				}
			}
			if resp.Placement.Stats.SimplexIters == 0 {
				t.Fatal("the solve ran no simplex iterations, so the check above proves little")
			}
		})
	}
	if got := metricValue(t, scrapeMetrics(t, other), `rulefit_solves_total{status="optimal"}`); got != 0 {
		t.Fatalf("an idle daemon counts %g optimal solves", got)
	}
}

// TestDaemonSheddingAndCancel drives the admission control: with the
// single solve slot held, a waiting request sheds the next arrival with
// 429, and canceling the waiter yields the 499 path.
func TestDaemonSheddingAndCancel(t *testing.T) {
	s, base := startDaemon(t, Config{MaxInFlight: 1, MaxQueue: 0})
	s.sem <- struct{}{} // hold the only solve slot
	defer func() { <-s.sem }()

	body, err := json.Marshal(PlaceRequest{Problem: testSpec(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	// Request A admits and waits for the slot.
	ctx, cancel := context.WithCancel(context.Background())
	reqA, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/place", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	aDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(reqA)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("waiter completed with %d while slot was held", resp.StatusCode)
		}
		aDone <- err
	}()
	waitFor(t, func() bool { return s.met.QueueDepth().Value() == 1 })

	// Request B exceeds MaxInFlight+MaxQueue and is shed.
	code, shedBody := postPlace(t, base, PlaceRequest{Problem: testSpec(t, 4)})
	if code != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d: %s", code, shedBody)
	}
	var shed errorResponse
	if err := json.Unmarshal(shedBody, &shed); err != nil {
		t.Fatal(err)
	}
	if shed.Error == "" || shed.TraceID == "" {
		t.Fatalf("shed response %+v", shed)
	}

	// Canceling A exercises the client-closed path and frees the queue.
	cancel()
	if err := <-aDone; err == nil {
		t.Fatal("canceled request returned no error")
	}
	waitFor(t, func() bool { return s.met.QueueDepth().Value() == 0 })

	// The shed and canceled outcomes landed in the request counter.
	out := scrapeMetrics(t, base)
	for _, series := range []string{
		`rulefit_requests_total{status="shed",stop_reason="none"}`,
		`rulefit_requests_total{status="canceled",stop_reason="none"}`,
	} {
		if got := metricValue(t, out, series); got != 1 {
			t.Fatalf("%s = %g, want 1", series, got)
		}
	}
}

// TestDaemonGracefulDrain verifies Shutdown completes an in-flight
// request: a request waiting for the solve slot survives the drain,
// solves, and returns 200 while readiness reports 503.
func TestDaemonGracefulDrain(t *testing.T) {
	cfg := Config{MaxInFlight: 1, Logger: quietLogger()}
	s := New(cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()
	base := "http://" + s.Addr()

	// Readiness is up before the drain.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}

	s.sem <- struct{}{} // park the request in the queue
	body, err := json.Marshal(PlaceRequest{
		Problem: testSpec(t, 8),
		Options: RequestOptions{Merging: true, TimeLimitSec: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		code int
		body []byte
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/place", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			reqDone <- result{}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		reqDone <- result{resp.StatusCode, data}
	}()
	waitFor(t, func() bool { return s.met.QueueDepth().Value() == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Readiness flips immediately, before the drain completes.
	waitFor(t, func() bool {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code == http.StatusServiceUnavailable
	})

	<-s.sem // release the slot; the parked request now solves
	res := <-reqDone
	if res.code != http.StatusOK {
		t.Fatalf("drained request status %d: %s", res.code, res.body)
	}
	if !bytes.Contains(res.body, []byte(`"status":"optimal"`)) {
		t.Fatalf("drained request body: %s", res.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
}

// TestDaemonTraceDir checks each solve endpoint's JSONL solver trace
// lands on disk, keyed and stamped by the response's trace ID, and that
// every event in the global flight ring carries a trace ID too.
func TestDaemonTraceDir(t *testing.T) {
	for _, ep := range solveEndpoints {
		t.Run(ep.name, func(t *testing.T) {
			dir := t.TempDir()
			_, base := startDaemon(t, Config{MaxInFlight: 1, TraceDir: dir})
			resp, body := ep.prepare(t, base, testSpec(t, 8), 1)[0].post(t)
			if resp.StatusCode != ep.code {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var got struct {
				TraceID string `json:"trace_id"`
			}
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(filepath.Join(dir, "trace-"+got.TraceID+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			events, err := obs.ReadEvents(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Fatal("trace file has no events")
			}
			for i, e := range events {
				if e.TraceID != got.TraceID {
					t.Fatalf("event %d trace ID %q, want %q", i, e.TraceID, got.TraceID)
				}
			}
			// The global flight ring is stamped at the same sink root.
			fz, err := http.Get(base + "/debug/flightz")
			if err != nil {
				t.Fatal(err)
			}
			defer fz.Body.Close()
			ring, err := obs.ReadEvents(fz.Body)
			if err != nil {
				t.Fatal(err)
			}
			if len(ring) < 2 {
				t.Fatalf("flightz dump holds %d lines, want the meta header and events", len(ring))
			}
			for i, e := range ring[1:] {
				if e.TraceID == "" {
					t.Fatalf("flightz event %d has no trace ID: %+v", i, e)
				}
			}
		})
	}
}

// invalidProblems are PlaceRequest bodies whose problems parse and
// build but fail core.Problem.Validate: two policies on one ingress,
// and a policy on an ingress with no routing.
func invalidProblems(t *testing.T) (dupIngress, unrouted string) {
	t.Helper()
	var desc spec.Problem
	if err := json.Unmarshal(testSpec(t, 4), &desc); err != nil {
		t.Fatal(err)
	}
	prob, err := desc.Build()
	if err != nil {
		t.Fatal(err)
	}
	free := -1
	for _, p := range prob.Network.IngressPorts() {
		if _, ok := prob.Routing.Sets[p.ID]; !ok {
			free = int(p.ID)
			break
		}
	}
	if free < 0 {
		t.Fatal("every ingress port is routed")
	}
	body := func(extra spec.Policy) string {
		d := desc
		d.Policies = append(append([]spec.Policy(nil), desc.Policies...), extra)
		probJSON, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		req, err := json.Marshal(PlaceRequest{Problem: probJSON, Options: sessionOptions})
		if err != nil {
			t.Fatal(err)
		}
		return string(req)
	}
	extra := desc.Policies[0]
	dupIngress = body(extra)
	extra.Ingress = free
	return dupIngress, body(extra)
}

// TestDaemonRejectsBadRequests covers the 4xx paths.
func TestDaemonRejectsBadRequests(t *testing.T) {
	_, base := startDaemon(t, Config{MaxInFlight: 1})
	dupIngress, unrouted := invalidProblems(t)
	valid, err := json.Marshal(PlaceRequest{Problem: testSpec(t, 4), Options: sessionOptions})
	if err != nil {
		t.Fatal(err)
	}
	// The pool size is the platform's; the wire no longer carries it.
	withWorkers := strings.Replace(string(valid), `"options":{`, `"options":{"workers":2,`, 1)
	if withWorkers == string(valid) {
		t.Fatalf("no options object in %s", valid)
	}
	weighted := strings.Replace(string(valid), `"options":{`, `"options":{"objective":"weighted",`, 1)
	for name, tc := range map[string]struct {
		method, path, body string
		want               int
	}{
		"get place":                 {http.MethodGet, "/v1/place", "", http.StatusMethodNotAllowed},
		"invalid json":              {http.MethodPost, "/v1/place", "{", http.StatusBadRequest},
		"missing problem":           {http.MethodPost, "/v1/place", `{"options":{}}`, http.StatusBadRequest},
		"unknown option":            {http.MethodPost, "/v1/place", `{"problem":{},"options":{"bogus":1}}`, http.StatusBadRequest},
		"bad backend":               {http.MethodPost, "/v1/place", `{"problem":{"topology":{"type":"linear","switches":2,"capacity":5}},"options":{"backend":"cplex"}}`, http.StatusBadRequest},
		"place duplicate ingress":   {http.MethodPost, "/v1/place", dupIngress, http.StatusBadRequest},
		"place unrouted ingress":    {http.MethodPost, "/v1/place", unrouted, http.StatusBadRequest},
		"session duplicate ingress": {http.MethodPost, "/v1/session", dupIngress, http.StatusBadRequest},
		"session unrouted ingress":  {http.MethodPost, "/v1/session", unrouted, http.StatusBadRequest},
		// A valid body followed by anything but whitespace.
		"place trailing object":   {http.MethodPost, "/v1/place", string(valid) + ` {"junk": true}`, http.StatusBadRequest},
		"place trailing garbage":  {http.MethodPost, "/v1/place", string(valid) + " trailing garbage", http.StatusBadRequest},
		"place stray brace":       {http.MethodPost, "/v1/place", string(valid) + "}", http.StatusBadRequest},
		"session trailing object": {http.MethodPost, "/v1/session", string(valid) + ` {"junk": true}`, http.StatusBadRequest},
		"place trailing space":    {http.MethodPost, "/v1/place", string(valid) + " \n\t", http.StatusOK},
		"place workers option":    {http.MethodPost, "/v1/place", withWorkers, http.StatusBadRequest},
		// Weighted placement needs switch costs the wire cannot carry.
		"place weighted objective":   {http.MethodPost, "/v1/place", weighted, http.StatusBadRequest},
		"session weighted objective": {http.MethodPost, "/v1/session", weighted, http.StatusBadRequest},
	} {
		req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		}
	}
	// Health stays up throughout.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
