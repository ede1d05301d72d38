package ilp

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"time"

	"rulefit/internal/obs"
)

// TestSolveIntrospectionDoesNotPerturb pins the flight-recorder
// invariant at the solver layer: attaching the daemon's sink stack
// (flight ring and live progress view, stamped with a trace ID) returns
// the same status, objective, solution vector, and search effort as a
// bare solve — for every pool size. Exact comparison is intentional.
func TestSolveIntrospectionDoesNotPerturb(t *testing.T) {
	const id = "req-000042"
	for _, w := range []int{1, 2, 8} {
		bare, err := solve(parallelFixture(7, 16), Options{TimeLimit: 60 * time.Second}, w)
		if err != nil {
			t.Fatalf("workers=%d bare: %v", w, err)
		}
		rec := obs.NewFlightRecorder(obs.FlightOpts{Size: 256})
		inst, err := solve(parallelFixture(7, 16), Options{
			TimeLimit: 60 * time.Second,
			Sink:      obs.Tag(id, obs.Multi(rec, obs.NewProgress(id))),
		}, w)
		if err != nil {
			t.Fatalf("workers=%d instrumented: %v", w, err)
		}
		if inst.Status != bare.Status {
			t.Fatalf("workers=%d: status %v with recorder, %v without", w, inst.Status, bare.Status)
		}
		//lint:exactfloat introspection contract: recorder-on must agree bit-for-bit
		if inst.Objective != bare.Objective {
			t.Fatalf("workers=%d: objective %v with recorder, %v without", w, inst.Objective, bare.Objective)
		}
		if !reflect.DeepEqual(inst.Values, bare.Values) {
			t.Fatalf("workers=%d: solution vector differs with recorder attached", w)
		}
		if inst.Stats.BnBNodes != bare.Stats.BnBNodes || inst.Stats.SimplexIters != bare.Stats.SimplexIters {
			t.Fatalf("workers=%d: search effort differs: (%d nodes, %d iters) with recorder vs (%d, %d) without",
				w, inst.Stats.BnBNodes, inst.Stats.SimplexIters, bare.Stats.BnBNodes, bare.Stats.SimplexIters)
		}
		if rec.Dump().Seen == 0 {
			t.Fatalf("workers=%d: flight recorder saw no events", w)
		}
	}
}

// TestSolveFlightRecorderMatchesFullTrace checks the ring is a faithful
// pass-through when it does not wrap: an oversized ring retains exactly
// the full event stream the JSONL trace records, in the same order.
func TestSolveFlightRecorderMatchesFullTrace(t *testing.T) {
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	rec := obs.NewFlightRecorder(obs.FlightOpts{Size: 1 << 16})
	if _, err := Solve(parallelFixture(3, 12), Options{
		TimeLimit: 60 * time.Second, Sink: obs.Multi(jw, rec),
	}); err != nil {
		t.Fatal(err)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	full, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := rec.Dump()
	if d.Dropped != 0 {
		t.Fatalf("single-writer unwrapped ring lost events: dropped=%d", d.Dropped)
	}
	if !reflect.DeepEqual(d.Events, full) {
		t.Fatalf("ring retained %d events, full trace has %d — streams differ",
			len(d.Events), len(full))
	}
}

// TestSolveProgressFinalSnapshot checks the live-progress contract: a
// Progress sink's final view is the done view and agrees with Stats,
// for every pool size.
func TestSolveProgressFinalSnapshot(t *testing.T) {
	const id = "req-000007"
	for _, w := range []int{1, 2, 8} {
		prog := obs.NewProgress(id)
		sol, err := solve(parallelFixture(7, 16), Options{
			TimeLimit: 60 * time.Second, Sink: prog,
		}, w)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("workers=%d: status %v", w, sol.Status)
		}
		s := prog.Snapshot()
		if !s.Done || s.Phase != "done" || s.TraceID != id {
			t.Fatalf("workers=%d: final view not done: %+v", w, s)
		}
		if s.Nodes != sol.Stats.BnBNodes || s.Incumbents != sol.Stats.Incumbents {
			t.Fatalf("workers=%d: view nodes/incumbents %d/%d, Stats %d/%d",
				w, s.Nodes, s.Incumbents, sol.Stats.BnBNodes, sol.Stats.Incumbents)
		}
		//lint:exactfloat the done event carries the exact Stats values
		if !s.HaveIncumbent || s.Incumbent != sol.Objective || s.Gap != sol.Stats.Gap {
			t.Fatalf("workers=%d: done view %+v disagrees with objective %g, gap %g",
				w, s, sol.Objective, sol.Stats.Gap)
		}
	}
}

// TestSolveProgressInfeasible: a proven-infeasible solve still closes
// the view, with the -1 gap sentinel and no incumbent.
func TestSolveProgressInfeasible(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a", 1)
	b := m.AddBinary("b", 1)
	m.AddConstraint([]Term{{a, 1}, {b, 1}}, GE, 2, "both")
	m.AddConstraint([]Term{{a, 1}, {b, 1}}, LE, 1, "atmost1")
	prog := obs.NewProgress("")
	sol, err := Solve(m, Options{TimeLimit: 60 * time.Second, Sink: prog})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v", sol.Status)
	}
	s := prog.Snapshot()
	if !s.Done {
		t.Fatalf("no terminal view for infeasible solve: %+v", s)
	}
	if s.HaveIncumbent || s.Gap != -1 {
		t.Fatalf("infeasible done view should carry no incumbent and gap -1: %+v", s)
	}
}

// TestSolveSearchProfileStats checks the new Stats search-profile
// fields: RootGap (root-LP bound vs final objective) and
// LastIncumbentAtNode (where the winning incumbent appeared).
func TestSolveSearchProfileStats(t *testing.T) {
	sol, err := Solve(parallelFixture(7, 16), Options{TimeLimit: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Stats.RootGap < 0 {
		t.Fatalf("RootGap = %g for an optimal solve with a root LP; want >= 0", sol.Stats.RootGap)
	}
	if sol.Stats.LastIncumbentAtNode < 0 || sol.Stats.LastIncumbentAtNode > sol.Stats.BnBNodes {
		t.Fatalf("LastIncumbentAtNode = %d outside [0, %d]", sol.Stats.LastIncumbentAtNode, sol.Stats.BnBNodes)
	}
	if sol.Stats.Incumbents == 0 {
		t.Fatal("optimal solve recorded no incumbents")
	}

	// Infeasible: both fields keep their sentinels.
	m := NewModel()
	a := m.AddBinary("a", 1)
	m.AddConstraint([]Term{{a, 1}}, GE, 2, "impossible")
	inf, err := Solve(m, Options{TimeLimit: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if inf.Status != Infeasible {
		t.Fatalf("status %v", inf.Status)
	}
	if inf.Stats.RootGap != -1 {
		t.Fatalf("infeasible RootGap = %g, want -1 sentinel", inf.Stats.RootGap)
	}
}

// TestDisabledIntrospectionOverheadSmoke extends the nil-sink gate to
// the whole introspection stack: a solve with recorder and progress
// both off must not be grossly slower than one with them on — i.e. the
// off path really is just branches. Same wide 1.5x margin as
// TestDisabledSinkOverheadSmoke to absorb CI noise.
func TestDisabledIntrospectionOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	median := func(opts func() Options) time.Duration {
		const runs = 7
		times := make([]time.Duration, 0, runs)
		for i := 0; i < runs; i++ {
			m := parallelFixture(7, 16)
			start := time.Now()
			if _, err := Solve(m, opts()); err != nil {
				t.Fatal(err)
			}
			times = append(times, time.Since(start))
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[runs/2]
	}
	off := median(func() Options {
		return Options{TimeLimit: 60 * time.Second}
	})
	on := median(func() Options {
		return Options{TimeLimit: 60 * time.Second,
			Sink: obs.Multi(obs.NewFlightRecorder(obs.FlightOpts{Size: 4096}), obs.NewProgress(""))}
	})
	if off > on*3/2 {
		t.Fatalf("introspection-off median %v exceeds 1.5x the introspection-on median %v", off, on)
	}
}

// BenchmarkSolveFlightRecorder measures the always-on recorder's cost
// against BenchmarkSolveSinkDisabled / BenchmarkSolveSinkNoop.
func BenchmarkSolveFlightRecorder(b *testing.B) {
	rec := obs.NewFlightRecorder(obs.FlightOpts{Size: 4096})
	for i := 0; i < b.N; i++ {
		m := parallelFixture(7, 16)
		if _, err := solve(m, Options{TimeLimit: 60 * time.Second, Sink: rec}, 1); err != nil {
			b.Fatal(err)
		}
	}
}
