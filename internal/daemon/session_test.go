package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"rulefit/internal/spec"
)

// sessionOptions are the solver options every session test uses, in
// wire form (must stay in sync with coldPlacement's use).
var sessionOptions = RequestOptions{Merging: true, TimeLimitSec: 60}

// doJSON sends a request with a JSON body and returns status + body.
func doJSON(t *testing.T, method, url string, payload any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if payload != nil {
		data, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

// explicitSpec mirrors the daemon's session normalization client-side:
// build the instance and flatten it to explicit form.
func explicitSpec(t *testing.T, specJSON []byte) *spec.Problem {
	t.Helper()
	desc, err := spec.LoadBytes(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := desc.Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec.FromCore(prob)
}

// coldPlacement solves a spec problem via POST /v1/place and returns
// the raw placement JSON — the byte-identity reference for every
// session answer.
func coldPlacement(t *testing.T, base string, sp *spec.Problem) []byte {
	t.Helper()
	probJSON, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	code, body := postPlace(t, base, PlaceRequest{Problem: probJSON, Options: sessionOptions})
	if code != http.StatusOK {
		t.Fatalf("cold place status %d: %s", code, body)
	}
	var resp struct {
		Placement json.RawMessage `json:"placement"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSpace(resp.Placement)
}

// createSession posts /v1/session and decodes the reply.
func createSession(t *testing.T, base string, specJSON []byte) (SessionResponse, json.RawMessage) {
	t.Helper()
	code, body := doJSON(t, http.MethodPost, base+"/v1/session",
		PlaceRequest{Problem: specJSON, Options: sessionOptions})
	if code != http.StatusCreated {
		t.Fatalf("create status %d: %s", code, body)
	}
	return decodeSession(t, body)
}

// decodeSession splits a session reply into its typed form and the
// raw placement bytes.
func decodeSession(t *testing.T, body []byte) (SessionResponse, json.RawMessage) {
	t.Helper()
	var sr SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("session response: %v\n%s", err, body)
	}
	var raw struct {
		Placement json.RawMessage `json:"placement"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	return sr, bytes.TrimSpace(raw.Placement)
}

// addRuleDelta is a fresh drop rule sized to the instance's width.
func addRuleDelta(sp *spec.Problem, prio int) spec.Delta {
	w := len(sp.Policies[0].Rules[0].Pattern)
	return spec.Delta{
		Op:      spec.OpAddRule,
		Ingress: sp.Policies[0].Ingress,
		Rule: &spec.Rule{
			Pattern:  "1" + strings.Repeat("*", w-1),
			Action:   "drop",
			Priority: prio,
		},
	}
}

// TestSessionLifecycle walks the full session API: create (cold),
// delta (warm), revert (identity), GET, DELETE — asserting every
// answer is byte-identical to a cold /v1/place of the instance the
// session holds at that moment.
func TestSessionLifecycle(t *testing.T) {
	specJSON := testSpec(t, 8)
	s, base := startDaemon(t, Config{MaxInFlight: 2})
	explicit := explicitSpec(t, specJSON)

	sr, pl := createSession(t, base, specJSON)
	if sr.Path != "cold" || sr.Version != 1 || !strings.HasPrefix(sr.SessionID, "s-") {
		t.Fatalf("create response %+v", sr)
	}
	if want := coldPlacement(t, base, explicit); !bytes.Equal(pl, want) {
		t.Fatalf("create placement differs from cold place:\n%s\nvs\n%s", pl, want)
	}
	basePl := pl

	// Warm delta: one policy changes, the rest hit the encode cache.
	delta := addRuleDelta(explicit, 9001)
	code, body := doJSON(t, http.MethodPost, base+"/v1/session/"+sr.SessionID+"/delta",
		DeltaRequest{Deltas: []spec.Delta{delta}})
	if code != http.StatusOK {
		t.Fatalf("delta status %d: %s", code, body)
	}
	dr, dpl := decodeSession(t, body)
	if dr.Path != "warm" || dr.Version != 2 {
		t.Fatalf("delta response path=%s version=%d, want warm v2", dr.Path, dr.Version)
	}
	if dr.Cache.PolicyHits != int64(len(explicit.Policies)-1) {
		t.Fatalf("delta cache stats %+v, want %d policy hits", dr.Cache, len(explicit.Policies)-1)
	}
	updated := explicit.Clone()
	if err := updated.Apply(delta); err != nil {
		t.Fatal(err)
	}
	if want := coldPlacement(t, base, updated); !bytes.Equal(dpl, want) {
		t.Fatalf("warm delta differs from cold place of updated instance:\n%s\nvs\n%s", dpl, want)
	}

	// Reverting restores the original canonical bytes: identity path.
	code, body = doJSON(t, http.MethodPost, base+"/v1/session/"+sr.SessionID+"/delta",
		DeltaRequest{Deltas: []spec.Delta{{
			Op: spec.OpRemoveRule, Ingress: delta.Ingress, Priority: delta.Rule.Priority,
		}}})
	if code != http.StatusOK {
		t.Fatalf("revert status %d: %s", code, body)
	}
	rr, rpl := decodeSession(t, body)
	if rr.Path != "identity" || rr.Version != 3 {
		t.Fatalf("revert response path=%s version=%d, want identity v3", rr.Path, rr.Version)
	}
	if !bytes.Equal(rpl, basePl) {
		t.Fatal("identity answer differs from the original placement")
	}

	// GET reflects the committed state without solving.
	code, body = doJSON(t, http.MethodGet, base+"/v1/session/"+sr.SessionID, nil)
	if code != http.StatusOK {
		t.Fatalf("get status %d: %s", code, body)
	}
	gr, gpl := decodeSession(t, body)
	if gr.Version != 3 || !bytes.Equal(gpl, basePl) {
		t.Fatalf("get response version=%d", gr.Version)
	}

	// Session metrics landed: gauge, per-path counters, cache counters.
	snap := s.met.Snapshot()
	if snap.SessionsActive != 1 {
		t.Fatalf("sessions_active = %d, want 1", snap.SessionsActive)
	}
	paths := map[string]int64{}
	for _, dc := range snap.Deltas {
		paths[dc.Path] = dc.Count
	}
	if paths["warm"] != 1 || paths["identity"] != 1 {
		t.Fatalf("delta path counters = %+v", snap.Deltas)
	}
	var metText bytes.Buffer
	if err := s.met.WritePrometheus(&metText); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"rulefit_sessions_active 1",
		`rulefit_session_deltas_total{path="warm"} 1`,
		`rulefit_encode_cache_total{kind="policy",outcome="hit"}`,
	} {
		if !strings.Contains(metText.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metText.String())
		}
	}

	// DELETE drops the session; every later touch is a 404 with a
	// trace ID.
	code, body = doJSON(t, http.MethodDelete, base+"/v1/session/"+sr.SessionID, nil)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"deleted":true`)) {
		t.Fatalf("delete status %d: %s", code, body)
	}
	if got := s.met.Snapshot().SessionsActive; got != 0 {
		t.Fatalf("sessions_active after delete = %d", got)
	}
}

// TestSessionNotFound asserts unknown/expired sessions answer 404
// with a trace ID on every session route.
func TestSessionNotFound(t *testing.T) {
	_, base := startDaemon(t, Config{MaxInFlight: 1})
	for name, probe := range map[string]struct {
		method, path string
		payload      any
	}{
		"get":    {http.MethodGet, "/v1/session/s-999999-abc", nil},
		"delete": {http.MethodDelete, "/v1/session/s-999999-abc", nil},
		"delta": {http.MethodPost, "/v1/session/s-999999-abc/delta",
			DeltaRequest{Deltas: []spec.Delta{{Op: spec.OpSetCapacity, Switch: 0, Capacity: 5}}}},
	} {
		req, err := http.NewRequest(probe.method, base+probe.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if probe.payload != nil {
			data, err := json.Marshal(probe.payload)
			if err != nil {
				t.Fatal(err)
			}
			req.Body = io.NopCloser(bytes.NewReader(data))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404: %s", name, resp.StatusCode, body)
		}
		if resp.Header.Get("X-Rulefit-Trace-Id") == "" {
			t.Errorf("%s: missing trace ID header", name)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.TraceID == "" {
			t.Errorf("%s: error body %s", name, body)
		}
	}
}

// TestSessionConcurrentDeltas fires commutative deltas concurrently
// at one session: they serialize into distinct monotone versions and
// a final placement identical to a cold solve of all deltas applied.
// The queue admits the whole burst: with n > MaxInFlight and no queue,
// overlapping requests would be shed with 429 by design.
func TestSessionConcurrentDeltas(t *testing.T) {
	const n = 5
	specJSON := testSpec(t, 6)
	_, base := startDaemon(t, Config{MaxInFlight: 4, MaxQueue: n})
	explicit := explicitSpec(t, specJSON)
	sr, _ := createSession(t, base, specJSON)

	versions := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := doJSON(t, http.MethodPost, base+"/v1/session/"+sr.SessionID+"/delta",
				DeltaRequest{Deltas: []spec.Delta{addRuleDelta(explicit, 9100+i)}})
			if code != http.StatusOK {
				t.Errorf("delta %d status %d: %s", i, code, body)
				return
			}
			dr, _ := decodeSession(t, body)
			versions[i] = dr.Version
		}(i)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, v := range versions {
		if v < 2 || v > n+1 || seen[v] {
			t.Fatalf("versions %v: want a permutation of 2..%d", versions, n+1)
		}
		seen[v] = true
	}

	seq := explicit.Clone()
	for i := 0; i < n; i++ {
		if err := seq.Apply(addRuleDelta(explicit, 9100+i)); err != nil {
			t.Fatal(err)
		}
	}
	code, body := doJSON(t, http.MethodGet, base+"/v1/session/"+sr.SessionID, nil)
	if code != http.StatusOK {
		t.Fatalf("get status %d", code)
	}
	gr, gpl := decodeSession(t, body)
	if gr.Version != n+1 {
		t.Fatalf("final version %d, want %d", gr.Version, n+1)
	}
	if want := coldPlacement(t, base, seq); !bytes.Equal(gpl, want) {
		t.Fatalf("final placement differs from sequential cold solve:\n%s\nvs\n%s", gpl, want)
	}
}

// TestSessionEvictionLRU fills the manager past MaxSessions and
// checks LRU order and the eviction log line.
func TestSessionEvictionLRU(t *testing.T) {
	var mu sync.Mutex
	var logBuf bytes.Buffer
	syncWriter := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logBuf.Write(p)
	})
	_, base := startDaemon(t, Config{
		MaxInFlight: 1, MaxSessions: 2,
		Logger: slog.New(slog.NewJSONHandler(syncWriter, nil)),
	})

	var ids []string
	for _, rules := range []int{4, 5} {
		sr, _ := createSession(t, base, testSpec(t, rules))
		ids = append(ids, sr.SessionID)
	}
	// Touch the first session so the second becomes the LRU victim.
	if code, _ := doJSON(t, http.MethodGet, base+"/v1/session/"+ids[0], nil); code != http.StatusOK {
		t.Fatalf("touch status %d", code)
	}
	sr3, _ := createSession(t, base, testSpec(t, 6))

	if code, _ := doJSON(t, http.MethodGet, base+"/v1/session/"+ids[1], nil); code != http.StatusNotFound {
		t.Fatalf("expected LRU victim %s evicted, got %d", ids[1], code)
	}
	for _, id := range []string{ids[0], sr3.SessionID} {
		if code, _ := doJSON(t, http.MethodGet, base+"/v1/session/"+id, nil); code != http.StatusOK {
			t.Fatalf("session %s should be live, got %d", id, code)
		}
	}
	mu.Lock()
	logged := logBuf.String()
	mu.Unlock()
	if !strings.Contains(logged, "session evicted") || !strings.Contains(logged, ids[1]) {
		t.Fatalf("eviction not logged:\n%s", logged)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestSessionBadDeltas covers the 4xx session paths.
func TestSessionBadDeltas(t *testing.T) {
	specJSON := testSpec(t, 4)
	_, base := startDaemon(t, Config{MaxInFlight: 1})
	sr, _ := createSession(t, base, specJSON)

	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"invalid json":  {"{", http.StatusBadRequest},
		"unknown field": {`{"bogus":1}`, http.StatusBadRequest},
		"empty deltas":  {`{"deltas":[]}`, http.StatusBadRequest},
		"unknown op":    {`{"deltas":[{"op":"teleport"}]}`, http.StatusBadRequest},
		"bad ingress":   {`{"deltas":[{"op":"add_rule","ingress":424242,"rule":{"pattern":"1*","action":"drop","priority":1}}]}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(base+"/v1/session/"+sr.SessionID+"/delta", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d: %s", name, resp.StatusCode, tc.want, body)
		}
	}
	// The session survived every rejection at version 1.
	code, body := doJSON(t, http.MethodGet, base+"/v1/session/"+sr.SessionID, nil)
	if code != http.StatusOK {
		t.Fatalf("get status %d", code)
	}
	gr, _ := decodeSession(t, body)
	if gr.Version != 1 {
		t.Fatalf("version after bad deltas = %d, want 1", gr.Version)
	}
	// Method checks on the session routes.
	if code, _ := doJSON(t, http.MethodGet, base+"/v1/session", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/session = %d, want 405", code)
	}
	if code, _ := doJSON(t, http.MethodPut, base+"/v1/session/"+sr.SessionID, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("PUT session = %d, want 405", code)
	}
	if code, _ := doJSON(t, http.MethodGet, base+"/v1/session/"+sr.SessionID+"/delta", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET delta = %d, want 405", code)
	}
}
