package ilp

import (
	"reflect"
	"testing"
	"time"

	"rulefit/internal/obs"
)

// TestTraceIDStampsEveryEvent asserts the request-scoping contract at
// the solver layer: a sink wrapped by obs.Tag sees the trace ID on
// every event, and stamping changes nothing else — neither the
// solution nor any other event field.
func TestTraceIDStampsEveryEvent(t *testing.T) {
	const id = "req-000042-00000000deadbeef"
	solve := func(traceID string) (Solution, []obs.Event) {
		rec := fullRing()
		sol, err := Solve(parallelFixture(5, 16), Options{
			TimeLimit: 60 * time.Second, Workers: 2, Sink: obs.Tag(traceID, rec),
		})
		if err != nil {
			t.Fatal(err)
		}
		events := fullTrace(t, rec)
		for i := range events {
			events[i] = events[i].Normalize()
		}
		return sol, events
	}
	plainSol, plain := solve("")
	taggedSol, tagged := solve(id)
	if !reflect.DeepEqual(plainSol, taggedSol) {
		t.Fatalf("trace ID perturbed the solution:\n%+v\nvs\n%+v", plainSol, taggedSol)
	}
	if len(tagged) == 0 || len(tagged) != len(plain) {
		t.Fatalf("event counts differ: %d tagged vs %d plain", len(tagged), len(plain))
	}
	for i, e := range tagged {
		if e.TraceID != id {
			t.Fatalf("event %d missing trace ID: %+v", i, e)
		}
		e.TraceID = ""
		if e != plain[i] {
			t.Fatalf("event %d differs beyond TraceID:\n%+v\nvs\n%+v", i, e, plain[i])
		}
	}
}
