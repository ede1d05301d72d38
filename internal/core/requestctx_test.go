package core

import (
	"reflect"
	"testing"
	"time"

	"rulefit/internal/obs"
)

// TestPlaceRequestCtxDoesNotPerturb is the acceptance gate for
// request-scoped observability as the daemon wires it: the request's
// span trace as Options.Trace and its ID stamped on the solver sink by
// obs.Tag must leave the placement byte-identical to an unscoped run,
// while every solver event carries the ID and the request's trace
// collects the spans.
func TestPlaceRequestCtxDoesNotPerturb(t *testing.T) {
	const id = "req-000001-00000000cafebabe"
	for _, w := range []int{1, 4} {
		plain, err := Place(determinismProblem(t), Options{
			Merging: true, TimeLimit: 60 * time.Second, Workers: w,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		rec := obs.NewFlightRecorder(obs.FlightOpts{Size: 1 << 16})
		rc := obs.NewRequestCtx(id)
		scoped, err := Place(determinismProblem(t), Options{
			Merging: true, TimeLimit: 60 * time.Second, Workers: w,
			Trace: rc.Trace, SolverSink: obs.Tag(rc.TraceID, rec),
		})
		if err != nil {
			t.Fatalf("workers=%d scoped: %v", w, err)
		}
		plain.Stats.SolveTime = 0
		scoped.Stats.SolveTime = 0
		if !reflect.DeepEqual(plain, scoped) {
			t.Fatalf("workers=%d: request-scoped placement differs from unscoped:\n%+v\nvs\n%+v",
				w, plain, scoped)
		}
		events := fullTrace(t, rec)
		if len(events) == 0 {
			t.Fatalf("workers=%d: sink saw no events", w)
		}
		for i, e := range events {
			if e.TraceID != id {
				t.Fatalf("workers=%d: event %d missing trace ID: %+v", w, i, e)
			}
		}
		// The request's trace collected the phase spans.
		if len(rc.Trace.Roots()) != 1 || rc.Trace.Roots()[0].Name() != "place" {
			t.Fatalf("workers=%d: request trace roots = %v", w, rc.Trace.Roots())
		}
	}
}
