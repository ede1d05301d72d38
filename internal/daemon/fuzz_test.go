package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/randgen"
	"rulefit/internal/spec"
	"rulefit/internal/verify"
)

// FuzzSessionDelta throws arbitrary request bodies at a live session's
// delta endpoint. The contract under fuzzing:
//
//   - the daemon never panics and never answers outside {200, 400}
//   - accepted deltas advance the session version strictly monotonically
//   - rejected deltas leave the version untouched
//   - every committed feasible placement is verify-clean against the
//     committed instance (data-plane semantics + capacities)
//
// The seed corpus in testdata/fuzz/FuzzSessionDelta covers every delta
// op against the randgen.FromSeed(5) instance (width 11, ingresses 0-1,
// switches 0-4) plus malformed bodies; coverage feedback mutates from
// there into the parser and spec.Apply edge cases.
func FuzzSessionDelta(f *testing.F) {
	for _, seed := range []string{
		`{"deltas":[{"op":"add_rule","ingress":0,"rule":{"pattern":"1**********","action":"drop","priority":9001}}]}`,
		`{"deltas":[{"op":"remove_rule","ingress":0,"priority":4}]}`,
		`{"deltas":[{"op":"set_capacity","switch":0,"capacity":5}]}`,
		`{"deltas":[{"op":"update_policy","ingress":1,"rules":[{"pattern":"***********","action":"permit","priority":1},{"pattern":"0**********","action":"drop","priority":2}]}]}`,
		`{"deltas":[{"op":"add_switch","switch":9,"capacity":3},{"op":"add_link","link":[4,9]}]}`,
		`{"deltas":[{"op":"remove_link","link":[1,3]}]}`,
		`{"deltas":[{"op":"teleport"}]}`,
		`{"deltas":[]}`,
		`not json at all`,
	} {
		f.Add([]byte(seed))
	}

	s := New(Config{MaxInFlight: 2, Logger: quietLogger()})
	if err := s.Start("127.0.0.1:0"); err != nil {
		f.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			f.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != http.ErrServerClosed {
			f.Errorf("serve returned %v", err)
		}
	})
	base := "http://" + s.Addr()

	inst, err := randgen.Generate(randgen.FromSeed(5))
	if err != nil {
		f.Fatal(err)
	}
	probJSON, err := json.Marshal(spec.FromCore(inst.Problem))
	if err != nil {
		f.Fatal(err)
	}
	createBody, err := json.Marshal(PlaceRequest{
		Problem: probJSON,
		Options: RequestOptions{Merging: true, TimeLimitSec: 30},
	})
	if err != nil {
		f.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/session", "application/json", bytes.NewReader(createBody))
	if err != nil {
		f.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		f.Fatalf("create status %d: %s (%v)", resp.StatusCode, body, err)
	}
	var created SessionResponse
	if err := json.Unmarshal(body, &created); err != nil {
		f.Fatal(err)
	}
	id := created.SessionID
	lastVersion := created.Version

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("oversized body")
		}
		resp, err := http.Post(base+"/v1/session/"+id+"/delta", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}

		sess, err := s.sessions.Get(id)
		if err != nil {
			t.Fatalf("session vanished: %v", err)
		}
		switch resp.StatusCode {
		case http.StatusBadRequest:
			if v := sess.Version(); v != lastVersion {
				t.Fatalf("rejected delta moved version %d -> %d", lastVersion, v)
			}
			return
		case http.StatusOK:
		default:
			t.Fatalf("unexpected status %d: %s", resp.StatusCode, body)
		}

		var sr SessionResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("bad session response: %v\n%s", err, body)
		}
		if sr.Version <= lastVersion {
			t.Fatalf("version not monotone: %d after %d", sr.Version, lastVersion)
		}
		lastVersion = sr.Version

		_, pl := sess.Snapshot()
		if pl.Status != core.StatusOptimal && pl.Status != core.StatusFeasible {
			return
		}
		prob, err := sess.Spec().Build()
		if err != nil {
			t.Fatalf("committed spec no longer builds: %v", err)
		}
		net, err := pl.BuildTables(prob)
		if err != nil {
			t.Fatalf("committed placement deploys dirty: %v", err)
		}
		cfg := verify.Config{SamplesPerRule: 2, RandomSamples: 4, MaxViolations: 3, Seed: 1}
		if v := verify.Semantics(net, prob.Routing, prob.Policies, cfg); len(v) > 0 {
			t.Fatalf("semantics violations after delta: %v", v[0])
		}
		if v := verify.Capacities(net, prob.Network); len(v) > 0 {
			t.Fatalf("capacity violations after delta: %v", v[0])
		}
	})
}
