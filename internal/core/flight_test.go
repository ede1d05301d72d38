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
// and search effort — as a bare run, for Workers ∈ {1, 2, 8}.
func TestPlaceFlightRecorderDoesNotPerturb(t *testing.T) {
	for _, fx := range determinismFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			for _, w := range []int{1, 2, 8} {
				bare, err := Place(fx.build(t), Options{
					Merging: true, TimeLimit: 60 * time.Second, Workers: w,
				})
				if err != nil {
					t.Fatalf("workers=%d bare: %v", w, err)
				}
				rec := obs.NewFlightRecorder(obs.FlightOpts{Size: 512})
				prog := obs.NewProgress("req-000051")
				inst, err := Place(fx.build(t), Options{
					Merging: true, TimeLimit: 60 * time.Second, Workers: w,
					SolverSink: obs.Tag("req-000051", obs.Multi(rec, prog)),
				})
				if err != nil {
					t.Fatalf("workers=%d instrumented: %v", w, err)
				}
				if inst.Status != bare.Status || inst.TotalRules != bare.TotalRules || inst.Objective != bare.Objective {
					t.Fatalf("workers=%d: summary differs with recorder: (%v, %d rules, obj %g) vs (%v, %d rules, obj %g)",
						w, inst.Status, inst.TotalRules, inst.Objective, bare.Status, bare.TotalRules, bare.Objective)
				}
				if !reflect.DeepEqual(inst.Assign, bare.Assign) {
					t.Errorf("workers=%d: rule assignments differ with recorder attached", w)
				}
				if !reflect.DeepEqual(inst.MergedAt, bare.MergedAt) {
					t.Errorf("workers=%d: merge placements differ with recorder attached", w)
				}
				if inst.Stats.BnBNodes != bare.Stats.BnBNodes {
					t.Errorf("workers=%d: node count %d with recorder, %d without", w, inst.Stats.BnBNodes, bare.Stats.BnBNodes)
				}
				d := rec.Dump()
				if d.Seen == 0 {
					t.Errorf("workers=%d: flight recorder saw no solver events", w)
				}
				if s := prog.Snapshot(); !s.Done {
					t.Errorf("workers=%d: no terminal progress view: %+v", w, s)
				}
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
