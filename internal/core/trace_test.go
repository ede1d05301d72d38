package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"rulefit/internal/obs"
)

// TestPlaceTracingDoesNotPerturb is the acceptance gate for the
// observability layer at the pipeline level: with a solver sink and a
// span trace attached, the placement (assignments, merges, objective,
// and the solver-effort stats) must be byte-identical to an untraced
// run.
func TestPlaceTracingDoesNotPerturb(t *testing.T) {
	for _, fx := range determinismFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			plain, err := Place(fx.build(t), Options{Merging: true, TimeLimit: 60 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.NewFlightRecorder(obs.FlightOpts{Size: 64})
			tr := obs.NewTrace()
			traced, err := Place(fx.build(t), Options{
				Merging: true, TimeLimit: 60 * time.Second,
				Trace: tr, SolverSink: rec,
			})
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			// SolveTime is wall clock; everything else must match.
			plain.Stats.SolveTime = 0
			traced.Stats.SolveTime = 0
			if !reflect.DeepEqual(plain, traced) {
				t.Fatalf("traced placement differs from untraced:\n%+v\nvs\n%+v", plain, traced)
			}
			if rec.Dump().Seen == 0 {
				t.Fatal("sink saw no events")
			}
			if len(tr.Roots()) != 1 || tr.Roots()[0].Name() != "place" {
				t.Fatalf("trace roots = %v", tr.Roots())
			}
		})
	}
}

// fullTrace returns every event an oversized flight ring saw, failing
// the test if the ring wrapped or dropped any.
func fullTrace(t *testing.T, rec *obs.FlightRecorder) []obs.Event {
	t.Helper()
	d := rec.Dump()
	if d.Dropped != 0 || d.Seen != uint64(len(d.Events)) {
		t.Fatalf("ring lost events: seen %d, retained %d, dropped %d", d.Seen, len(d.Events), d.Dropped)
	}
	return d.Events
}

// TestPlaceEndsEverySpan: when Place returns, every span it opened has
// ended, so Trace.Render and its consumers never read a zero wall time.
// Covers the three span layouts: a certified answer (per-policy
// sub-problems, no solve), a rejected stitch that falls back to the
// joint solve, and a merging answer (joint solve only).
func TestPlaceEndsEverySpan(t *testing.T) {
	cases := []struct {
		name    string
		build   func(*testing.T) *Problem
		merging bool
		phases  string // the place span's children, in order
	}{
		{"decomposed", determinismProblem, false, "decompose"},
		{"stitch-rejected", sharedBottleneckProblem, false, "decompose encode model_build solve extract"},
		{"merging", determinismProblem, true, "encode model_build solve extract"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.NewTrace()
			if _, err := Place(tc.build(t), Options{
				Merging: tc.merging, TimeLimit: 60 * time.Second, Trace: tr,
			}); err != nil {
				t.Fatal(err)
			}
			roots := tr.Roots()
			if len(roots) != 1 {
				t.Fatalf("trace has %d roots, want 1", len(roots))
			}
			var phases []string
			for _, ch := range roots[0].Children() {
				phases = append(phases, ch.Name())
			}
			if got := strings.Join(phases, " "); got != tc.phases {
				t.Fatalf("place phases %q, want %q", got, tc.phases)
			}
			var walk func(sp *obs.Span, path string)
			walk = func(sp *obs.Span, path string) {
				path += "/" + sp.Name()
				if sp.Wall() <= 0 {
					t.Errorf("span %s never ended", path)
				}
				for _, ch := range sp.Children() {
					walk(ch, path)
				}
			}
			walk(roots[0], "")
		})
	}
}

// TestPlaceTraceEventsDeterministic asserts the event stream surfaced
// through core is identical (modulo timing) from one run to the next.
func TestPlaceTraceEventsDeterministic(t *testing.T) {
	events := func() []obs.Event {
		rec := obs.NewFlightRecorder(obs.FlightOpts{Size: 1 << 16})
		_, err := Place(determinismProblem(t), Options{
			Merging: true, TimeLimit: 60 * time.Second, SolverSink: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		evs := fullTrace(t, rec)
		for i := range evs {
			evs[i] = evs[i].Normalize()
		}
		return evs
	}
	first, again := events(), events()
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("two runs' event streams differ (%d vs %d events)", len(first), len(again))
	}
}

// TestPlaceStatsCarrySolverBreakdown asserts the solver's per-outcome
// counters and proof state survive the core Stats copy.
func TestPlaceStatsCarrySolverBreakdown(t *testing.T) {
	pl, err := Place(determinismProblem(t), Options{Merging: true, TimeLimit: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	st := pl.Stats
	sum := st.Branched + st.PrunedBound + st.PrunedInfeasible + st.IntegralLeaves + st.LostSubtrees
	if sum != st.BnBNodes {
		t.Fatalf("outcome counters sum to %d, BnBNodes = %d (%+v)", sum, st.BnBNodes, st)
	}
	if pl.Status == StatusOptimal {
		//lint:exactfloat proven optimality must surface the exact 0 gap
		if st.Gap != 0 || st.BestBound != pl.Objective {
			t.Fatalf("optimal placement: Gap = %v, BestBound = %v, Objective = %v",
				st.Gap, st.BestBound, pl.Objective)
		}
		if st.StopReason.String() != "none" {
			t.Fatalf("optimal placement: StopReason = %v", st.StopReason)
		}
	}
	if st.Incumbents < 1 {
		t.Fatalf("Incumbents = %d, want >= 1", st.Incumbents)
	}
}
