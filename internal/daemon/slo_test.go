package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"rulefit/internal/obs"
)

// TestMetricsEndpointHeaders asserts the scrape endpoints declare
// their payload type explicitly and forbid caching.
func TestMetricsEndpointHeaders(t *testing.T) {
	_, base := startDaemon(t, Config{MaxInFlight: 1})
	for path, wantCT := range map[string]string{
		"/metrics": "text/plain; version=0.0.4",
		"/statusz": "application/json",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != wantCT {
			t.Errorf("%s Content-Type = %q, want %q", path, ct, wantCT)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s Cache-Control = %q, want no-store", path, cc)
		}
	}
}

// TestTraceIDHeaderOnEveryPath asserts X-Rulefit-Trace-Id comes back
// on success, decode-failure 400, body-read-failure 400, and 429 shed
// responses, and matches the trace ID in the body.
func TestTraceIDHeaderOnEveryPath(t *testing.T) {
	post := func(t *testing.T, url, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	checkHeader := func(t *testing.T, resp *http.Response, wantCode int) {
		t.Helper()
		if resp.StatusCode != wantCode {
			t.Fatalf("status %d, want %d", resp.StatusCode, wantCode)
		}
		hdr := resp.Header.Get("X-Rulefit-Trace-Id")
		if !strings.HasPrefix(hdr, "req-") {
			t.Fatalf("X-Rulefit-Trace-Id = %q", hdr)
		}
		var body struct {
			TraceID string `json:"trace_id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.TraceID != hdr {
			t.Fatalf("body trace_id %q != header %q", body.TraceID, hdr)
		}
	}

	t.Run("success", func(t *testing.T) {
		for _, ep := range solveEndpoints {
			t.Run(ep.name, func(t *testing.T) {
				_, base := startDaemon(t, Config{MaxInFlight: 1})
				req := ep.prepare(t, base, testSpec(t, 4), 1)[0]
				checkHeader(t, post(t, req.url, string(req.body)), ep.code)
			})
		}
	})
	t.Run("bad request decode", func(t *testing.T) {
		_, base := startDaemon(t, Config{MaxInFlight: 1})
		checkHeader(t, post(t, base+"/v1/place", "{not json"), http.StatusBadRequest)
	})
	t.Run("bad request body read", func(t *testing.T) {
		_, base := startDaemon(t, Config{MaxInFlight: 1, MaxBodyBytes: 8})
		checkHeader(t, post(t, base+"/v1/place", `{"problem": {"far": "too long"}}`), http.StatusBadRequest)
	})
	t.Run("shed", func(t *testing.T) {
		s, base := startDaemon(t, Config{MaxInFlight: 1, MaxQueue: 0})
		s.queued.Add(1) // simulate a full admission queue
		defer s.queued.Add(-1)
		checkHeader(t, post(t, base+"/v1/place", `{"problem":{}}`), http.StatusTooManyRequests)
	})
}

// TestServerTimingAndPhaseAttribution drives one successful solve per
// solve endpoint and asserts (1) the Server-Timing header attributes
// wall time to the pipeline phases, (2) the same phases land as a
// labeled histogram family on /metrics, and (3) the served placement
// is byte-identical to the in-process one: the instrumentation is
// observation, never behavior.
func TestServerTimingAndPhaseAttribution(t *testing.T) {
	for _, ep := range solveEndpoints {
		t.Run(ep.name, func(t *testing.T) {
			_, base := startDaemon(t, Config{MaxInFlight: 1})
			req := ep.prepare(t, base, testSpec(t, 8), 1)[0]
			resp, body := req.post(t)
			if resp.StatusCode != ep.code {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			st := resp.Header.Get("Server-Timing")
			for _, phase := range []string{"queue_wait", "parse", "encode", "model_build", "solve", "extract"} {
				if !strings.Contains(st, phase+";dur=") {
					t.Errorf("Server-Timing missing %s: %q", phase, st)
				}
			}
			var got struct {
				Placement json.RawMessage `json:"placement"`
			}
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if want := inProcessPlacement(t, req.solves); !bytes.Equal(bytes.TrimSpace(got.Placement), want) {
				t.Fatalf("served placement differs from in-process:\n%s\nvs\n%s", got.Placement, want)
			}

			mresp, err := http.Get(base + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer mresp.Body.Close()
			payload, err := io.ReadAll(mresp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if err := obs.CheckPrometheusText(bytes.NewReader(payload)); err != nil {
				t.Fatalf("exposition not conformant: %v\n%s", err, payload)
			}
			out := string(payload)
			served := ep.setup + 1
			for _, want := range []string{
				"# TYPE rulefit_request_phase_seconds histogram",
				fmt.Sprintf(`rulefit_request_phase_seconds_count{phase="solve"} %d`, served),
				fmt.Sprintf(`rulefit_request_phase_seconds_count{phase="queue_wait"} %d`, served),
			} {
				if !strings.Contains(out, want) {
					t.Fatalf("metrics missing %q:\n%s", want, out)
				}
			}
			phases := 0
			for series := range metricSamples(t, out) {
				if strings.HasPrefix(series, "rulefit_request_phase_seconds_count{") {
					phases++
				}
			}
			if phases < 6 {
				t.Fatalf("phase families = %d, want >= 6", phases)
			}
		})
	}
}

// TestSecRing drives the lazily-advanced rate ring with explicit
// seconds: in-window sums, expiry past the window, and gaps longer
// than the ring.
func TestSecRing(t *testing.T) {
	r := newSecRing(300)
	base := int64(1_000_000)
	r.addAt(base, 1)
	r.addAt(base+35, 2) // inside the 1m window ending at +90 ([+31, +90])
	r.addAt(base+90, 4)
	if got := r.sumAt(base+90, 60); got != 6 { // 35s and 90s entries
		t.Fatalf("1m sum = %d, want 6", got)
	}
	if got := r.sumAt(base+90, 300); got != 7 {
		t.Fatalf("5m sum = %d, want 7", got)
	}
	// Everything expires once the window slides past it.
	if got := r.sumAt(base+500, 60); got != 0 {
		t.Fatalf("sum after expiry = %d, want 0", got)
	}
	// A gap far longer than the ring wraps cleanly.
	r.addAt(base+10_000, 5)
	if got := r.sumAt(base+10_000, 60); got != 5 {
		t.Fatalf("sum after long gap = %d, want 5", got)
	}
}

// TestStatusz exercises the endpoint end to end: after one success
// and one shed, the sliding windows report both and the shed rate.
func TestStatusz(t *testing.T) {
	s, base := startDaemon(t, Config{MaxInFlight: 1, MaxQueue: 0})
	code, _ := postPlace(t, base, PlaceRequest{
		Problem: testSpec(t, 4),
		Options: RequestOptions{Merging: true, TimeLimitSec: 60},
	})
	if code != http.StatusOK {
		t.Fatalf("place status %d", code)
	}
	s.queued.Add(1) // simulate a full admission queue
	code, _ = postPlace(t, base, PlaceRequest{Problem: testSpec(t, 4)})
	s.queued.Add(-1)
	if code != http.StatusTooManyRequests {
		t.Fatalf("shed status %d", code)
	}

	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap StatusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.MaxInFlight != 1 || snap.MaxQueue != 0 {
		t.Fatalf("limits = %d/%d, want 1/0", snap.MaxInFlight, snap.MaxQueue)
	}
	if snap.Requests1m != 2 || snap.Shed1m != 1 {
		t.Fatalf("1m window = %d requests / %d shed, want 2/1", snap.Requests1m, snap.Shed1m)
	}
	if snap.ShedRate1m != 0.5 || snap.ShedRate5m != 0.5 {
		t.Fatalf("shed rates = %g/%g, want 0.5", snap.ShedRate1m, snap.ShedRate5m)
	}
	if snap.UptimeSec < 0 {
		t.Fatalf("uptime %g", snap.UptimeSec)
	}
}

// TestStatuszPhaseExemplars: /statusz names the trace behind each
// phase's slowest observation, here the only request's.
func TestStatuszPhaseExemplars(t *testing.T) {
	_, base := startDaemon(t, Config{MaxInFlight: 1})
	code, body := postPlace(t, base, PlaceRequest{
		Problem: testSpec(t, 4),
		Options: RequestOptions{Merging: true, TimeLimitSec: 60},
	})
	if code != http.StatusOK {
		t.Fatalf("place status %d: %s", code, body)
	}
	var placed PlaceResponse
	if err := json.Unmarshal(body, &placed); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap StatusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	for _, ex := range snap.PhaseExemplars {
		if ex.TraceID != placed.TraceID {
			t.Fatalf("phase %s exemplar names trace %q, want %q", ex.Phase, ex.TraceID, placed.TraceID)
		}
		phases[ex.Phase] = true
	}
	if !phases["parse"] || !phases["solve"] {
		t.Fatalf("exemplars cover phases %v, want parse and solve among them", phases)
	}
}
