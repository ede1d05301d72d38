package obs

import (
	"testing"
	"time"
)

func TestPhaseExemplarsTrackSlowest(t *testing.T) {
	m := NewMetrics()
	m.RecordPhaseTrace("solve", 10*time.Millisecond, "req-000001")
	m.RecordPhaseTrace("solve", 250*time.Millisecond, "req-000002")
	m.RecordPhaseTrace("solve", 40*time.Millisecond, "req-000003")
	m.RecordPhaseTrace("parse", 2*time.Millisecond, "req-000002")
	m.RecordPhaseTrace("encode", 5*time.Millisecond, "") // no trace: histogram only

	ex := m.PhaseExemplars()
	if len(ex) != 2 {
		t.Fatalf("got %d exemplars, want 2 (empty trace IDs never become exemplars): %+v", len(ex), ex)
	}
	// Sorted by phase name.
	if ex[0].Phase != "parse" || ex[1].Phase != "solve" {
		t.Fatalf("exemplars not sorted by phase: %+v", ex)
	}
	solve := ex[1]
	if solve.TraceID != "req-000002" {
		t.Fatalf("solve exemplar trace %q, want the slowest (req-000002)", solve.TraceID)
	}
	if solve.Seconds != 0.25 {
		t.Fatalf("solve exemplar seconds %g, want 0.25", solve.Seconds)
	}
	if solve.BucketLE < 0.25 {
		t.Fatalf("solve exemplar bucket bound %g does not cover the observation", solve.BucketLE)
	}
}

func TestPhaseExemplarOverflowBucket(t *testing.T) {
	m := NewMetrics()
	// Beyond the top phaseWall bucket (~26s): BucketLE reports the +Inf
	// sentinel -1 rather than an unencodable math.Inf.
	m.RecordPhaseTrace("solve", time.Hour, "req-000009")
	ex := m.PhaseExemplars()
	if len(ex) != 1 || ex[0].BucketLE != -1 {
		t.Fatalf("overflow observation should report BucketLE -1: %+v", ex)
	}
}
