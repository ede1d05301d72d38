package ilp

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"rulefit/internal/obs"
)

// TestSolveIntrospectionDoesNotPerturb pins the flight-recorder
// invariant at the solver layer: attaching the full introspection stack
// (flight ring, live progress cell, pprof labels, trace ID) returns the
// same status, objective, solution vector, and search effort as a bare
// solve — for every worker count. Exact comparison is intentional.
func TestSolveIntrospectionDoesNotPerturb(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		bare, err := Solve(parallelFixture(7, 16), Options{TimeLimit: 60 * time.Second, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d bare: %v", w, err)
		}
		rec := obs.NewFlightRecorder(obs.FlightOpts{Size: 256})
		var prog obs.Progress
		inst, err := Solve(parallelFixture(7, 16), Options{
			TimeLimit: 60 * time.Second, Workers: w,
			Sink: rec, Progress: &prog, ProfileLabels: true, TraceID: "req-000042",
		})
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
		if inst.Stats.Nodes != bare.Stats.Nodes || inst.Stats.SimplexIters != bare.Stats.SimplexIters {
			t.Fatalf("workers=%d: search effort differs: (%d nodes, %d iters) with recorder vs (%d, %d) without",
				w, inst.Stats.Nodes, inst.Stats.SimplexIters, bare.Stats.Nodes, bare.Stats.SimplexIters)
		}
		if rec.Dump().Seen == 0 {
			t.Fatalf("workers=%d: flight recorder saw no events", w)
		}
	}
}

// TestSolveFlightRecorderMatchesFullTrace checks the ring is a faithful
// pass-through when it does not wrap: an oversized ring retains exactly
// the event stream a full Recorder sees, in the same order.
func TestSolveFlightRecorderMatchesFullTrace(t *testing.T) {
	var full obs.Recorder
	rec := obs.NewFlightRecorder(obs.FlightOpts{Size: 1 << 16})
	if _, err := Solve(parallelFixture(3, 12), Options{
		TimeLimit: 60 * time.Second, Workers: 1, Sink: obs.Multi(&full, rec),
	}); err != nil {
		t.Fatal(err)
	}
	d := rec.Dump()
	if d.Dropped != 0 {
		t.Fatalf("single-writer unwrapped ring lost events: dropped=%d", d.Dropped)
	}
	if !reflect.DeepEqual(d.Events, full.Events()) {
		t.Fatalf("ring retained %d events, full trace has %d — streams differ",
			len(d.Events), len(full.Events()))
	}
}

// TestSolveProgressFinalSnapshot checks the live-progress contract: the
// last published snapshot is the done snapshot and agrees with Stats.
func TestSolveProgressFinalSnapshot(t *testing.T) {
	var prog obs.Progress
	sol, err := Solve(parallelFixture(7, 16), Options{
		TimeLimit: 60 * time.Second, Workers: 2, Progress: &prog, TraceID: "req-000007",
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ok := prog.Snapshot()
	if !ok {
		t.Fatal("no progress snapshot published")
	}
	if !s.Done || s.Phase != "done" {
		t.Fatalf("final snapshot not done: %+v", s)
	}
	if s.TraceID != "req-000007" {
		t.Fatalf("snapshot trace ID %q", s.TraceID)
	}
	if s.Nodes != sol.Stats.Nodes {
		t.Fatalf("snapshot nodes %d, Stats.Nodes %d", s.Nodes, sol.Stats.Nodes)
	}
	if s.Workers != 2 {
		t.Fatalf("snapshot workers %d", s.Workers)
	}
	if sol.Status == Optimal {
		if !s.HaveIncumbent || s.Incumbent != sol.Objective {
			t.Fatalf("done snapshot incumbent %+v disagrees with objective %g", s, sol.Objective)
		}
		if s.Gap != sol.Stats.Gap {
			t.Fatalf("snapshot gap %g, Stats.Gap %g", s.Gap, sol.Stats.Gap)
		}
	}
}

// TestSolveProgressInfeasible: a proven-infeasible solve still publishes
// a terminal done snapshot, with the -1 gap sentinel and no incumbent.
func TestSolveProgressInfeasible(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a", 1)
	b := m.AddBinary("b", 1)
	m.AddConstraint([]Term{{a, 1}, {b, 1}}, GE, 2, "both")
	m.AddConstraint([]Term{{a, 1}, {b, 1}}, LE, 1, "atmost1")
	var prog obs.Progress
	sol, err := Solve(m, Options{TimeLimit: 60 * time.Second, Progress: &prog})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v", sol.Status)
	}
	s, ok := prog.Snapshot()
	if !ok || !s.Done {
		t.Fatalf("no terminal snapshot for infeasible solve: %+v", s)
	}
	if s.HaveIncumbent || s.Gap != -1 {
		t.Fatalf("infeasible done snapshot should carry no incumbent and gap -1: %+v", s)
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
	if sol.Stats.LastIncumbentAtNode < 0 || sol.Stats.LastIncumbentAtNode > sol.Stats.Nodes {
		t.Fatalf("LastIncumbentAtNode = %d outside [0, %d]", sol.Stats.LastIncumbentAtNode, sol.Stats.Nodes)
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
// the whole introspection stack: a solve with recorder, progress, and
// labels all off must not be grossly slower than one with them on —
// i.e. the off path really is just branches. Same wide 1.5x margin as
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
		return Options{TimeLimit: 60 * time.Second, Workers: 1}
	})
	on := median(func() Options {
		var prog obs.Progress
		return Options{TimeLimit: 60 * time.Second, Workers: 1,
			Sink: obs.NewFlightRecorder(obs.FlightOpts{Size: 4096}), Progress: &prog, ProfileLabels: true}
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
		if _, err := Solve(m, Options{TimeLimit: 60 * time.Second, Workers: 1, Sink: rec}); err != nil {
			b.Fatal(err)
		}
	}
}
