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
	plain, err := Place(determinismProblem(t), Options{Merging: true, TimeLimit: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewFlightRecorder(obs.FlightOpts{Size: 1 << 16})
	rc := obs.NewRequestCtx(id)
	scoped, err := Place(determinismProblem(t), Options{
		Merging: true, TimeLimit: 60 * time.Second,
		Trace: rc.Trace, SolverSink: obs.Tag(rc.TraceID, rec),
	})
	if err != nil {
		t.Fatalf("scoped: %v", err)
	}
	plain.Stats.SolveTime = 0
	scoped.Stats.SolveTime = 0
	if !reflect.DeepEqual(plain, scoped) {
		t.Fatalf("request-scoped placement differs from unscoped:\n%+v\nvs\n%+v", plain, scoped)
	}
	events := fullTrace(t, rec)
	if len(events) == 0 {
		t.Fatal("sink saw no events")
	}
	for i, e := range events {
		if e.TraceID != id {
			t.Fatalf("event %d missing trace ID: %+v", i, e)
		}
	}
	// The request's trace collected the phase spans.
	if len(rc.Trace.Roots()) != 1 || rc.Trace.Roots()[0].Name() != "place" {
		t.Fatalf("request trace roots = %v", rc.Trace.Roots())
	}
}
