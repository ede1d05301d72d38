package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/obs"
	"rulefit/internal/obs/traceview"
)

// TestSecRingBackwardClock pins the clamp: adds and reads for seconds
// behind the ring's frontier land at the frontier instead of resurrecting
// (or pre-polluting) slots. Sleep-free — seconds are explicit.
func TestSecRingBackwardClock(t *testing.T) {
	r := newSecRing(300)
	base := int64(2_000_000)
	r.addAt(base, 1)
	r.addAt(base-50, 2) // clock went backwards: counts at the frontier
	if got := r.sumAt(base, 60); got != 3 {
		t.Fatalf("sum at frontier = %d, want 3 (backward add clamped in)", got)
	}
	// A backward read must not advance-and-zero future slots either.
	if got := r.sumAt(base-120, 60); got != 3 {
		t.Fatalf("backward read = %d, want 3 (read clamped to frontier)", got)
	}
	if r.lastSec != base {
		t.Fatalf("frontier moved backwards to %d", r.lastSec)
	}
}

// serveJSON drives one request through the server's handler
// synchronously (no network, no goroutines — the injected clock can be
// swapped between calls without races).
func serveJSON(t *testing.T, s *Server, method, path string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec.Code, rec.Body.Bytes()
}

// TestStatuszClockInjection drives the /statusz rate windows with an
// injected clock — no sleeps: one request lands in the 1m/5m windows,
// then a 400-second jump of the fake clock expires the 1m window (and
// keeps the 5m one) without any wall time passing.
func TestStatuszClockInjection(t *testing.T) {
	s := New(Config{MaxInFlight: 1, Logger: quietLogger()})
	s.ready.Store(true)
	fake := time.Unix(3_000_000, 0)
	s.now = func() time.Time { return fake }

	body, err := json.Marshal(PlaceRequest{
		Problem: testSpec(t, 4),
		Options: RequestOptions{Merging: true, TimeLimitSec: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if code, resp := serveJSON(t, s, http.MethodPost, "/v1/place", body); code != http.StatusOK {
		t.Fatalf("place status %d: %s", code, resp)
	}

	status := func() StatusSnapshot {
		code, resp := serveJSON(t, s, http.MethodGet, "/statusz", nil)
		if code != http.StatusOK {
			t.Fatalf("statusz status %d", code)
		}
		var snap StatusSnapshot
		if err := json.Unmarshal(resp, &snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}

	if snap := status(); snap.Requests1m != 1 || snap.Requests5m != 1 {
		t.Fatalf("windows before jump = %d/%d, want 1/1", snap.Requests1m, snap.Requests5m)
	}
	fake = fake.Add(100 * time.Second) // past 1m, inside 5m
	if snap := status(); snap.Requests1m != 0 || snap.Requests5m != 1 {
		t.Fatalf("windows after 100s jump = %d/%d, want 0/1", snap.Requests1m, snap.Requests5m)
	}
	fake = fake.Add(300 * time.Second) // past 5m too
	if snap := status(); snap.Requests5m != 0 {
		t.Fatalf("5m window after 400s = %d, want 0 (stale ring not zeroed on read)", snap.Requests5m)
	}
}

// TestSolvezIdle: the endpoint answers an empty-but-well-formed body
// when no solve is in flight.
func TestSolvezIdle(t *testing.T) {
	s := New(Config{MaxInFlight: 1, Logger: quietLogger()})
	code, body := serveJSON(t, s, http.MethodGet, "/debug/solvez", nil)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var resp solvezResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 0 || resp.Active == nil || len(resp.Active) != 0 {
		t.Fatalf("idle solvez = %+v, want count 0 and an empty (non-null) list", resp)
	}
}

// TestSolvezDuringSolve scrapes /debug/solvez while two requests to
// each solve endpoint are inside the daemon — one holding the only
// solve slot (stretched by SolveDelay), one queued behind it — and
// expects a live snapshot for both: the progress view is registered
// from arrival. The in-CI smoke does the same against a real
// ruleplaced process.
func TestSolvezDuringSolve(t *testing.T) {
	for _, ep := range solveEndpoints {
		t.Run(ep.name, func(t *testing.T) {
			s, base := startDaemon(t, Config{MaxInFlight: 1, MaxQueue: 1, SolveDelay: 400 * time.Millisecond})
			reqs := ep.prepare(t, base, testSpec(t, 4), 2)
			done := make(chan int, len(reqs))
			for _, req := range reqs {
				go func() {
					resp, err := http.Post(req.url, "application/json", bytes.NewReader(req.body))
					if err != nil {
						done <- 0
						return
					}
					resp.Body.Close()
					done <- resp.StatusCode
				}()
			}
			var seen solvezResponse
			waitFor(t, func() bool {
				resp, err := http.Get(base + "/debug/solvez")
				if err != nil {
					return false
				}
				defer resp.Body.Close()
				if err := json.NewDecoder(resp.Body).Decode(&seen); err != nil {
					return false
				}
				return seen.Count == len(reqs)
			})
			for _, snap := range seen.Active {
				if snap.TraceID == "" || snap.Phase == "" {
					t.Fatalf("live snapshot lacks trace ID or phase: %+v", snap)
				}
			}
			for range reqs {
				if code := <-done; code != ep.code {
					t.Fatalf("status %d, want %d", code, ep.code)
				}
			}
			// The registry empties once the requests finish.
			waitFor(t, func() bool { return len(s.solves.snapshots()) == 0 })
		})
	}
}

// TestFlightDumpOnDeadline is the post-mortem path end to end: a solve
// killed by its deadline leaves flight-<trace_id>.jsonl in FlightDir,
// and traceview can parse it — partial, with the terminal done event
// carrying the final incumbent/bound state.
func TestFlightDumpOnDeadline(t *testing.T) {
	dir := t.TempDir()
	_, base := startDaemon(t, Config{MaxInFlight: 1, FlightDir: dir})
	code, body := postPlace(t, base, PlaceRequest{
		Problem: testSpec(t, 24),
		// Far too little time for a 24-rule merged solve: the solver
		// stops on its deadline poll and the daemon dumps the ring.
		Options: RequestOptions{Merging: true, TimeLimitSec: 0.0005},
	})
	if code != http.StatusOK {
		t.Fatalf("place status %d: %s", code, body)
	}
	var resp PlaceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Placement.Stats.StopReason != "deadline" {
		t.Skipf("solve finished in under 0.5ms (stop reason %q); nothing to dump", resp.Placement.Stats.StopReason)
	}
	path := filepath.Join(dir, "flight-"+resp.TraceID+".jsonl")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("no flight dump for deadline-killed solve: %v", err)
	}
	defer f.Close()
	sum, err := traceview.Summarize(f)
	if err != nil {
		t.Fatalf("traceview cannot parse the dump: %v", err)
	}
	if !sum.Partial {
		t.Fatal("flight dump not marked partial (flight_meta header missing)")
	}
	if sum.StopReason != "deadline" {
		t.Fatalf("dump stop reason %q, want deadline", sum.StopReason)
	}
	if err := sum.Check(); err != nil {
		t.Fatalf("dump fails traceview consistency check: %v", err)
	}
}

// TestFlightzEndpoint: after a request, the global ring serves a
// traceview-parseable JSONL dump on demand.
func TestFlightzEndpoint(t *testing.T) {
	s := New(Config{MaxInFlight: 1, Logger: quietLogger()})
	s.ready.Store(true)
	body, err := json.Marshal(PlaceRequest{
		Problem: testSpec(t, 4),
		Options: RequestOptions{Merging: true, TimeLimitSec: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if code, resp := serveJSON(t, s, http.MethodPost, "/v1/place", body); code != http.StatusOK {
		t.Fatalf("place status %d: %s", code, resp)
	}
	code, dump := serveJSON(t, s, http.MethodGet, "/debug/flightz", nil)
	if code != http.StatusOK {
		t.Fatalf("flightz status %d", code)
	}
	sum, err := traceview.Summarize(bytes.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Partial || sum.Events < 2 {
		t.Fatalf("flightz dump not a populated partial trace: %+v", sum)
	}
	if sum.SeenEvents == 0 {
		t.Fatal("flightz dump carries no loss accounting")
	}
}

// TestIntrospectionNoPlacementEffect is the daemon-level invariant the
// introspection layer promises (see internal/daemon/introspect.go): the
// placement served with the per-request flight ring armed is
// byte-identical to one served with the layer at defaults.
func TestIntrospectionNoPlacementEffect(t *testing.T) {
	req, err := json.Marshal(PlaceRequest{
		Problem: testSpec(t, 12),
		Options: RequestOptions{Merging: true, TimeLimitSec: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	place := func(t *testing.T, cfg Config) json.RawMessage {
		t.Helper()
		cfg.Logger = quietLogger()
		s := New(cfg)
		s.ready.Store(true)
		code, body := serveJSON(t, s, http.MethodPost, "/v1/place", req)
		if code != http.StatusOK {
			t.Fatalf("place status %d: %s", code, body)
		}
		var got struct {
			Placement json.RawMessage `json:"placement"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		return got.Placement
	}
	dir := t.TempDir()
	on := place(t, Config{MaxInFlight: 2, FlightDir: dir})
	off := place(t, Config{MaxInFlight: 2})
	if !bytes.Equal(on, off) {
		t.Fatalf("placement differs with introspection armed:\n%s\nvs\n%s", on, off)
	}
}

// TestSolveRunsUnderTraceIDLabel: on a default-config daemon every
// solve runs under its trace_id pprof label, so the samples of a CPU
// profile pulled from the debug listener name their request. The
// goroutine profile taken inside the solve shows the label the CPU
// profiler would record.
func TestSolveRunsUnderTraceIDLabel(t *testing.T) {
	s := New(Config{MaxInFlight: 1, Logger: quietLogger()})
	var profile bytes.Buffer
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/place", strings.NewReader("{}"))
	s.serveSolve(rec, req, "place", func([]byte) (solveFunc, error) {
		return func(_ *obs.RequestCtx, _ obs.Sink, st *requestState) error {
			if err := pprof.Lookup("goroutine").WriteTo(&profile, 1); err != nil {
				return err
			}
			st.code, st.placement = http.StatusOK, &core.Placement{}
			return nil
		}, nil
	})
	traceID := rec.Header().Get("X-Rulefit-Trace-Id")
	if rec.Code != http.StatusOK || traceID == "" {
		t.Fatalf("status %d, trace ID %q: %s", rec.Code, traceID, rec.Body.Bytes())
	}
	if want := `"trace_id":"` + traceID + `"`; !strings.Contains(profile.String(), want) {
		t.Fatalf("goroutine profile taken inside the solve lacks the label %s:\n%s", want, profile.Bytes())
	}
}

// TestDumpOnShedRateLimit: shed-triggered dumps are capped at one per
// second of the injected clock.
func TestDumpOnShedRateLimit(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{MaxInFlight: 1, Logger: quietLogger(),
		FlightDir: dir})
	fake := time.Unix(4_000_000, 0)
	s.now = func() time.Time { return fake }
	s.dumpOnShed("shed-a")
	s.dumpOnShed("shed-b") // same second: suppressed
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !strings.Contains(ents[0].Name(), "shed-a") {
		t.Fatalf("same-second sheds wrote %d dumps: %v", len(ents), ents)
	}
	fake = fake.Add(time.Second)
	s.dumpOnShed("shed-c")
	if ents, _ := os.ReadDir(dir); len(ents) != 2 {
		t.Fatalf("next-second shed did not dump: %v", ents)
	}
}
