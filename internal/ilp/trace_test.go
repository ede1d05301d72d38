package ilp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"rulefit/internal/obs"
)

// fullRing returns a flight ring far larger than any fixture's event
// stream, so it holds the whole stream (see fullTrace).
func fullRing() *obs.FlightRecorder {
	return obs.NewFlightRecorder(obs.FlightOpts{Size: 1 << 16})
}

// fullTrace returns every event a fullRing saw, failing the test if
// the ring wrapped or dropped any.
func fullTrace(t *testing.T, rec *obs.FlightRecorder) []obs.Event {
	t.Helper()
	d := rec.Dump()
	if d.Dropped != 0 || d.Seen != uint64(len(d.Events)) {
		t.Fatalf("ring lost events: seen %d, retained %d, dropped %d", d.Seen, len(d.Events), d.Dropped)
	}
	return d.Events
}

// traceOf solves a fixture with a full ring attached and returns the
// solution plus the normalized (timing-stripped) event sequence.
func traceOf(t *testing.T, m *Model, workers int) (Solution, []obs.Event) {
	t.Helper()
	rec := fullRing()
	sol, err := Solve(m, Options{TimeLimit: 60 * time.Second, Workers: workers, Sink: rec})
	if err != nil {
		t.Fatal(err)
	}
	events := fullTrace(t, rec)
	for i := range events {
		events[i] = events[i].Normalize()
	}
	return sol, events
}

// TestTraceDeterministic asserts the tracing half of the determinism
// contract: the same model traced twice yields identical event
// sequences modulo timing fields, and Workers=1 vs Workers=4 yield the
// same sequence too (events are emitted only from the sequential merge
// loop).
func TestTraceDeterministic(t *testing.T) {
	_, base := traceOf(t, parallelFixture(5, 16), 1)
	if len(base) == 0 {
		t.Fatal("no events recorded")
	}
	_, again := traceOf(t, parallelFixture(5, 16), 1)
	if !reflect.DeepEqual(base, again) {
		t.Fatalf("same model traced twice differs:\n%v\nvs\n%v", base, again)
	}
	_, par := traceOf(t, parallelFixture(5, 16), 4)
	if !reflect.DeepEqual(base, par) {
		t.Fatalf("workers=1 vs workers=4 traces differ:\n%v\nvs\n%v", base, par)
	}
}

// TestTracingDoesNotPerturbSolve asserts the other half: a traced solve
// returns a Solution (stats included) deeply equal to an untraced one,
// across worker counts.
func TestTracingDoesNotPerturbSolve(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		plain, err := Solve(parallelFixture(9, 18), Options{TimeLimit: 60 * time.Second, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		traced, _ := traceOf(t, parallelFixture(9, 18), w)
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("workers=%d: traced solve differs from untraced:\n%+v\nvs\n%+v", w, plain, traced)
		}
	}
}

// TestStatsOutcomeAccounting asserts the Stats invariant: per-outcome
// counters sum to BnBNodes, and the trace's node events agree with Stats.
func TestStatsOutcomeAccounting(t *testing.T) {
	for _, seed := range []int64{3, 7, 11, 42} {
		sol, events := traceOf(t, parallelFixture(seed, 16), 2)
		st := sol.Stats
		sum := st.Branched + st.PrunedBound + st.PrunedInfeasible + st.IntegralLeaves + st.LostSubtrees
		if sum != st.BnBNodes {
			t.Fatalf("seed %d: outcome counters sum to %d, Stats.BnBNodes = %d (%+v)", seed, sum, st.BnBNodes, st)
		}
		nodeEvents, skips, incumbents := 0, 0, 0
		var done *obs.Event
		for i, e := range events {
			switch e.Kind {
			case obs.KindNode:
				nodeEvents++
			case obs.KindSkip:
				skips++
			case obs.KindIncumbent:
				incumbents++
			case obs.KindDone:
				done = &events[i]
			}
		}
		if nodeEvents != st.BnBNodes {
			t.Fatalf("seed %d: %d node events, Stats.BnBNodes = %d", seed, nodeEvents, st.BnBNodes)
		}
		if skips != st.PrunedStale {
			t.Fatalf("seed %d: %d skip events, Stats.PrunedStale = %d", seed, skips, st.PrunedStale)
		}
		if incumbents != st.Incumbents {
			t.Fatalf("seed %d: %d incumbent events, Stats.Incumbents = %d", seed, incumbents, st.Incumbents)
		}
		if done == nil {
			t.Fatalf("seed %d: no done event", seed)
		}
		//lint:exactfloat the done event must carry the exact Stats values, not approximations
		if done.Gap != st.Gap || done.BestBound != st.BestBound {
			t.Fatalf("seed %d: done event gap/bound (%g, %g) != Stats (%g, %g)",
				seed, done.Gap, done.BestBound, st.Gap, st.BestBound)
		}
		if done.Reason != st.StopReason.String() || done.Outcome != sol.Status.String() {
			t.Fatalf("seed %d: done event %q/%q != Stats %q/%q",
				seed, done.Outcome, done.Reason, sol.Status, st.StopReason)
		}
	}
}

// TestTraceJSONLRoundTrip streams a solve through the JSONL writer and
// checks the re-read trace matches the in-memory recording.
func TestTraceJSONLRoundTrip(t *testing.T) {
	rec := fullRing()
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	_, err := Solve(parallelFixture(7, 14),
		Options{TimeLimit: 60 * time.Second, Workers: 2, Sink: obs.Multi(rec, w)})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := fullTrace(t, rec); !reflect.DeepEqual(got, want) {
		t.Fatalf("JSONL round trip differs from recorder (%d vs %d events)", len(got), len(want))
	}
}

// TestStopReasonNodeLimit asserts the node limit is reported as the stop
// reason and the outcome accounting stays intact when the search is cut.
func TestStopReasonNodeLimit(t *testing.T) {
	sol, err := Solve(parallelFixture(11, 20), Options{NodeLimit: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := sol.Stats
	if st.StopReason != StopNodeLimit {
		t.Fatalf("StopReason = %v, want %v (status %v)", st.StopReason, StopNodeLimit, sol.Status)
	}
	if st.BnBNodes > 3 {
		t.Fatalf("BnBNodes = %d exceeds the limit", st.BnBNodes)
	}
	sum := st.Branched + st.PrunedBound + st.PrunedInfeasible + st.IntegralLeaves + st.LostSubtrees
	if sum != st.BnBNodes {
		t.Fatalf("outcome counters sum to %d, BnBNodes = %d (%+v)", sum, st.BnBNodes, st)
	}
}

// TestStopReasonDeadline asserts a root-LP deadline expiry is reported
// as StopDeadline with an undefined gap.
func TestStopReasonDeadline(t *testing.T) {
	sol, err := Solve(parallelFixture(13, 24), Options{TimeLimit: time.Nanosecond, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != LimitReached {
		t.Skipf("solve finished before the 1ns deadline fired (status %v)", sol.Status)
	}
	if sol.Stats.StopReason != StopDeadline {
		t.Fatalf("StopReason = %v, want %v", sol.Stats.StopReason, StopDeadline)
	}
	//lint:exactfloat -1 is an exact sentinel, not a computed value
	if sol.Stats.Gap != -1 {
		t.Fatalf("Gap = %v, want the -1 sentinel", sol.Stats.Gap)
	}
}

// TestStopReasonText: a stop reason travels through JSON by its String
// name under the run record's key. A missing key reads as StopNone, and
// an unknown name is refused rather than read as some other reason.
func TestStopReasonText(t *testing.T) {
	for _, r := range []StopReason{StopNone, StopDeadline, StopNodeLimit, StopLostSubtree} {
		data, err := json.Marshal(Stats{StopReason: r})
		if err != nil {
			t.Fatal(err)
		}
		if key := `"stop_reason":"` + r.String() + `"`; !bytes.Contains(data, []byte(key)) {
			t.Errorf("%v encodes as %s, want %s", r, data, key)
		}
		var back Stats
		if err := json.Unmarshal(data, &back); err != nil || back.StopReason != r {
			t.Errorf("%s decodes to %v, %v; want %v", data, back.StopReason, err, r)
		}
	}
	var back Stats
	if err := json.Unmarshal([]byte(`{"nodes": 3}`), &back); err != nil || back.StopReason != StopNone {
		t.Errorf("missing key decodes to %v, %v; want none", back.StopReason, err)
	}
	for _, name := range []string{"time_limit", "", "Deadline", "StopReason(9)"} {
		var st Stats
		if err := json.Unmarshal([]byte(`{"stop_reason":"`+name+`"}`), &st); err == nil {
			t.Errorf("stop reason %q accepted as %v", name, st.StopReason)
		}
	}
}

// stallSink sleeps in the solver's sequential section when the root
// node branches, so the deadline passes between the root and the tree
// search.
type stallSink struct{ d time.Duration }

func (s stallSink) Event(e obs.Event) {
	if e.Kind == obs.KindNode && e.Node == 1 && e.Outcome == obs.OutcomeBranched {
		time.Sleep(s.d)
	}
}

// TestSearchStopsAtDeadline: once the deadline has passed, the search
// ends after the round in progress. The model is Jeroslow's 2·Σx = n
// (n odd) with a continuous slack y ∈ [0, 0.5] that cannot repair the
// parity: integer-infeasible with a fractional LP at every node of an
// exponential tree, so the dive never finds an incumbent and each
// round is one node. The search must stop after the first one rather
// than keep expanding nodes until a periodic clock poll notices.
func TestSearchStopsAtDeadline(t *testing.T) {
	const n = 21
	m := NewModel()
	terms := make([]Term, n, n+1)
	for i := range terms {
		terms[i] = Term{Var: m.AddBinary("x", 1), Coef: 2}
	}
	terms = append(terms, Term{Var: m.AddVar("y", 0, 0.5, 0), Coef: 1})
	m.AddConstraint(terms, EQ, n, "odd")
	const limit = 50 * time.Millisecond
	sol, err := Solve(m, Options{TimeLimit: limit, Workers: 1, Sink: stallSink{2 * limit}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != LimitReached || sol.Stats.StopReason != StopDeadline {
		t.Fatalf("status %v, stop reason %v; want %v at %v", sol.Status, sol.Stats.StopReason,
			LimitReached, StopDeadline)
	}
	if sol.Stats.BnBNodes > 2 {
		t.Fatalf("expanded %d nodes; want the root plus at most one round after the deadline", sol.Stats.BnBNodes)
	}
}

// TestGapProvenOptimal asserts a clean optimal solve reports gap 0 with
// BestBound equal to the objective.
func TestGapProvenOptimal(t *testing.T) {
	sol, err := Solve(parallelFixture(3, 12), Options{TimeLimit: 60 * time.Second, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	//lint:exactfloat proven optimality must set the exact 0/objective values
	if sol.Stats.Gap != 0 || sol.Stats.BestBound != sol.Objective {
		t.Fatalf("proven solve: Gap = %v, BestBound = %v, Objective = %v",
			sol.Stats.Gap, sol.Stats.BestBound, sol.Objective)
	}
	if sol.Stats.StopReason != StopNone {
		t.Fatalf("StopReason = %v, want %v", sol.Stats.StopReason, StopNone)
	}
}
