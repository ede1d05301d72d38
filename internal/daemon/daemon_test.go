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
// the test. Each daemon gets its own Metrics instance to avoid
// cross-test bleed through obs.Default.
func startDaemon(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &obs.Metrics{}
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
		Options: RequestOptions{Merging: true, Workers: 2, TimeLimitSec: 60},
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
		Merging: true, Workers: 2, TimeLimit: 60 * time.Second,
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
	// The JSON mirror parses and agrees on the request count.
	jresp, err := http.Get(base + "/metrics/json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var snap obs.MetricsSnapshot
	if err := json.NewDecoder(jresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Requests) != 1 || snap.Requests[0].Count != 1 {
		t.Fatalf("json snapshot requests = %+v", snap.Requests)
	}
	// The debug mux mirrors /metrics and serves pprof.
	rec := httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", rec.Code)
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
	snap := s.met.Snapshot()
	counts := map[string]int64{}
	for _, rc := range snap.Requests {
		counts[rc.Status] = rc.Count
	}
	if counts["shed"] != 1 || counts["canceled"] != 1 {
		t.Fatalf("request counts = %+v", snap.Requests)
	}
}

// TestDaemonGracefulDrain verifies Shutdown completes an in-flight
// request: a request waiting for the solve slot survives the drain,
// solves, and returns 200 while readiness reports 503.
func TestDaemonGracefulDrain(t *testing.T) {
	cfg := Config{MaxInFlight: 1, Logger: quietLogger(), Metrics: &obs.Metrics{}}
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
// lands on disk, keyed and stamped by the response's trace ID.
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
