package core

import (
	"reflect"
	"testing"
	"time"

	"rulefit/internal/obs"
)

// TestPlaceFlightRecorderDoesNotPerturb is the pipeline-level
// introspection invariant: running the full placement with a flight
// recorder and a live progress view attached, stamped with a trace ID,
// produces the identical placement — assignments, merges, objective,
// and search effort — as a bare run.
func TestPlaceFlightRecorderDoesNotPerturb(t *testing.T) {
	for _, fx := range determinismFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			bare, err := Place(fx.build(t), Options{Merging: true, TimeLimit: 60 * time.Second})
			if err != nil {
				t.Fatalf("bare: %v", err)
			}
			rec := obs.NewFlightRecorder(obs.FlightOpts{Size: 512})
			prog := obs.NewProgress("req-000051")
			inst, err := Place(fx.build(t), Options{
				Merging: true, TimeLimit: 60 * time.Second,
				SolverSink: obs.Tag("req-000051", obs.Multi(rec, prog)),
			})
			if err != nil {
				t.Fatalf("instrumented: %v", err)
			}
			if inst.Status != bare.Status || inst.TotalRules != bare.TotalRules || inst.Objective != bare.Objective {
				t.Fatalf("summary differs with recorder: (%v, %d rules, obj %g) vs (%v, %d rules, obj %g)",
					inst.Status, inst.TotalRules, inst.Objective, bare.Status, bare.TotalRules, bare.Objective)
			}
			if !reflect.DeepEqual(inst.Assign, bare.Assign) {
				t.Error("rule assignments differ with recorder attached")
			}
			if !reflect.DeepEqual(inst.MergedAt, bare.MergedAt) {
				t.Error("merge placements differ with recorder attached")
			}
			if inst.Stats.BnBNodes != bare.Stats.BnBNodes {
				t.Errorf("node count %d with recorder, %d without", inst.Stats.BnBNodes, bare.Stats.BnBNodes)
			}
			if d := rec.Dump(); d.Seen == 0 {
				t.Error("flight recorder saw no solver events")
			}
			if s := prog.Snapshot(); !s.Done {
				t.Errorf("no terminal progress view: %+v", s)
			}
		})
	}
}

// TestPlaceSearchProfileStats checks the new Stats fields survive the
// core passthrough: RootGap is computed for ILP solves and sentinel for
// the SAT backend.
func TestPlaceSearchProfileStats(t *testing.T) {
	pl, err := Place(determinismProblem(t), Options{Merging: true, TimeLimit: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Stats.RootGap < 0 {
		t.Errorf("ILP placement RootGap = %g, want >= 0", pl.Stats.RootGap)
	}
	if pl.Stats.LastIncumbentAtNode < 0 || pl.Stats.LastIncumbentAtNode > pl.Stats.BnBNodes {
		t.Errorf("LastIncumbentAtNode = %d outside [0, %d]", pl.Stats.LastIncumbentAtNode, pl.Stats.BnBNodes)
	}

	sat, err := Place(determinismProblem(t), Options{
		Backend: BackendSAT, SatisfyOnly: true, TimeLimit: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sat.Stats.RootGap != -1 {
		t.Errorf("SAT placement RootGap = %g, want -1 sentinel (no LP relaxation)", sat.Stats.RootGap)
	}
}
