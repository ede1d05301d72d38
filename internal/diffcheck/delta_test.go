package diffcheck

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"rulefit/internal/core"
	"rulefit/internal/randgen"
	"rulefit/internal/spec"
	"rulefit/internal/state"
)

// deltaSuiteOpts varies the encoding-relevant options across seeds so
// the delta oracle covers merging and redundancy removal too. No time
// limit: the byte-identity contract only holds for proven answers, and
// quick-suite instances prove in milliseconds.
func deltaSuiteOpts(seed int64) core.Options {
	return core.Options{
		Merging:         seed%2 == 0,
		RemoveRedundant: seed%3 == 0,
	}
}

// deltaInstance generates the quick-suite instance for a seed in
// explicit spec form.
func deltaInstance(t *testing.T, seed int64) *spec.Problem {
	t.Helper()
	inst, err := randgen.Generate(randgen.FromSeed(seed))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return spec.FromCore(inst.Problem)
}

// TestQuickDeltaDifferentialSuite replays seeded delta streams on 120
// generated instances, comparing every stateful-session answer against
// a cold solve of the fully-updated instance. This is the tier-1 gate
// for the session layer's byte-identity contract; it also runs under
// -race in the race stage of scripts/check.sh.
func TestQuickDeltaDifferentialSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("delta differential suite is not -short")
	}
	paths := map[string]int{}
	solvePaths := map[core.SolvePath]int{}
	fallbacks := map[string]int{}
	for seed := int64(1); seed <= 120; seed++ {
		seed := seed
		sp := deltaInstance(t, seed)
		deltas, err := randgen.GenerateDeltas(sp, 5, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res := CheckDeltas(sp, deltas, deltaSuiteOpts(seed))
		for _, f := range res.Failures {
			t.Errorf("seed %d: %s", seed, f)
		}
		if res.Failed() {
			writeDeltaReproducer(t, sp, deltas, deltaSuiteOpts(seed), seed)
		}
		for p, n := range res.Paths {
			paths[p] += n
		}
		for p, n := range res.SolvePaths {
			solvePaths[p] += n
		}
		for c, n := range res.Fallbacks {
			fallbacks[c] += n
		}
	}
	// The suite must exercise the whole fallback ladder, or the oracle
	// is silently weaker than it claims.
	for _, p := range []string{state.PathIdentity, state.PathWarm, state.PathCold} {
		if paths[p] == 0 {
			t.Errorf("no delta step answered via the %q path (path counts: %v)", p, paths)
		}
	}
	// It must also reach every route through core.Place, and both
	// reasons the decomposition falls back to the joint MILP.
	for _, p := range []core.SolvePath{core.SolveCertified, core.SolveFallback, core.SolveJoint} {
		if solvePaths[p] == 0 {
			t.Errorf("no delta step solved via the %q path (solve path counts: %v)", p, solvePaths)
		}
	}
	for _, c := range []string{"uncertified", "stitch_rejected"} {
		if fallbacks[c] == 0 {
			t.Errorf("no delta step fell back because of %q (fallback counts: %v)", c, fallbacks)
		}
	}
	t.Logf("path coverage: %v; solve paths: %v; fallbacks: %v", paths, solvePaths, fallbacks)
}

// writeDeltaReproducer shrinks a failing delta stream to a minimal
// subsequence, writes it as a fixture with deltas under the test's temp
// dir, replays the written file to confirm it still fails, and logs its
// path with the shrunk deltas, which with the seed's instance are the
// reproducer to commit under testdata/regressions/delta/.
func writeDeltaReproducer(t *testing.T, sp *spec.Problem, deltas []spec.Delta, opts core.Options, seed int64) {
	t.Helper()
	shrunk := ShrinkDeltas(sp, deltas, opts)
	note := fmt.Sprintf("quick delta suite seed %d, shrunk from %d to %d deltas", seed, len(deltas), len(shrunk))
	path := filepath.Join(t.TempDir(), fmt.Sprintf("seed-%d.json", seed))
	fix := &Fixture{Schema: FixtureSchema, Note: note, Seed: seed, Options: fixtureOptions(opts), Problem: sp, Deltas: shrunk}
	if err := fix.WriteFile(path); err != nil {
		t.Errorf("seed %d: writing the reproducer: %v", seed, err)
		return
	}
	fix, err := LoadFixture(path)
	if err != nil {
		t.Errorf("seed %d: %v", seed, err)
		return
	}
	failures, err := fix.Replay(Options{})
	if err != nil || !failures.Failed() {
		t.Errorf("seed %d: the written reproducer does not fail on replay (err %v)", seed, err)
		return
	}
	shrunkJSON, err := json.Marshal(shrunk)
	if err != nil {
		t.Errorf("seed %d: %v", seed, err)
		return
	}
	t.Logf("seed %d: %s; fixture %s replays a %s failure; deltas %s", seed, note, path, failures[0].Kind, shrunkJSON)
}

// mustWire returns the placement's wire bytes, the delta oracle's
// answer identity.
func mustWire(t *testing.T, pl *core.Placement) string {
	t.Helper()
	b, err := wireBytes(pl)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWireBytesCoverTheWholeAnswer pins the delta oracle's answer
// identity to the whole wire form: placements with the same status,
// total and assignment are different answers when one stats field
// differs, and when their objectives differ by less than any rounding
// to six decimals would show.
func TestWireBytesCoverTheWholeAnswer(t *testing.T) {
	prob, err := buildValid(deltaInstance(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Place(prob, deltaSuiteOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	base := mustWire(t, pl)
	constraints, objective := *pl, *pl
	constraints.Stats.Constraints++
	objective.Objective += 1e-7
	for name, other := range map[string]*core.Placement{"stats.constraints": &constraints, "objective": &objective} {
		if mustWire(t, other) == base {
			t.Errorf("placements that differ only in %s encode to the same wire bytes %s", name, base)
		}
	}
}

// TestDeltaAddRemoveRestoresFingerprint is the first metamorphic delta
// property: adding a rule and removing it again must restore the exact
// placement wire bytes, and the session must answer the restored
// state from its memo (identity path) rather than re-solving.
func TestDeltaAddRemoveRestoresFingerprint(t *testing.T) {
	for _, seed := range []int64{3, 11, 29, 64} {
		sp := deltaInstance(t, seed)
		opts := deltaSuiteOpts(seed)
		mgr := state.NewManager(state.Config{})
		sess, createRes, err := mgr.Create(sp, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		base := mustWire(t, createRes.Placement)

		pol := sp.Policies[0]
		maxPrio := 0
		for _, r := range pol.Rules {
			if r.Priority > maxPrio {
				maxPrio = r.Priority
			}
		}
		pattern := make([]byte, len(pol.Rules[0].Pattern))
		for i := range pattern {
			pattern[i] = '*'
		}
		pattern[len(pattern)-1] = '0'
		add := &spec.Delta{Op: spec.OpAddRule, Ingress: pol.Ingress,
			Rule: &spec.Rule{Pattern: string(pattern), Action: "drop", Priority: maxPrio + 1}}
		if _, err := sess.Delta([]spec.Delta{*add}, nil, nil); err != nil {
			t.Fatalf("seed %d add: %v", seed, err)
		}
		res, err := sess.Delta([]spec.Delta{{
			Op: spec.OpRemoveRule, Ingress: add.Ingress, Priority: add.Rule.Priority,
		}}, nil, nil)
		if err != nil {
			t.Fatalf("seed %d remove: %v", seed, err)
		}
		if fp := mustWire(t, res.Placement); fp != base {
			t.Errorf("seed %d: add-then-remove changed the placement:\n%s\nvs\n%s", seed, fp, base)
		}
		if res.Path != state.PathIdentity {
			t.Errorf("seed %d: restored state answered via %q, want identity", seed, res.Path)
		}
	}
}

// TestDeltaInterleavingsAgree is the second metamorphic delta
// property: independent deltas (touching different policies/switches)
// applied in either order must reach the same final placement.
func TestDeltaInterleavingsAgree(t *testing.T) {
	for _, seed := range []int64{5, 18, 42} {
		sp := deltaInstance(t, seed)
		opts := deltaSuiteOpts(seed)

		// Two independent deltas: a rule add on the first policy and a
		// capacity raise on the last switch.
		pol := sp.Policies[0]
		width := len(pol.Rules[0].Pattern)
		maxPrio := 0
		for _, r := range pol.Rules {
			if r.Priority > maxPrio {
				maxPrio = r.Priority
			}
		}
		pattern := make([]byte, width)
		for i := range pattern {
			pattern[i] = '*'
		}
		pattern[0] = '1'
		d1 := spec.Delta{Op: spec.OpAddRule, Ingress: pol.Ingress,
			Rule: &spec.Rule{Pattern: string(pattern), Action: "drop", Priority: maxPrio + 1}}
		sw := sp.Topology.SwitchList[len(sp.Topology.SwitchList)-1]
		d2 := spec.Delta{Op: spec.OpSetCapacity, Switch: sw.ID, Capacity: sw.Capacity + 3}

		final := make([]string, 2)
		for i, order := range [][]spec.Delta{{d1, d2}, {d2, d1}} {
			mgr := state.NewManager(state.Config{})
			sess, _, err := mgr.Create(sp, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			var last *state.Result
			for _, d := range order {
				if last, err = sess.Delta([]spec.Delta{d}, nil, nil); err != nil {
					t.Fatalf("seed %d order %d: %v", seed, i, err)
				}
			}
			final[i] = mustWire(t, last.Placement)
		}
		if final[0] != final[1] {
			t.Errorf("seed %d: interleavings diverge:\n%s\nvs\n%s", seed, final[0], final[1])
		}
	}
}

// TestDeltaCapacityRaiseNeverWorsens is the third metamorphic delta
// property: raising switch capacities through the session can only
// relax the instance, so a proven-optimal objective never increases.
func TestDeltaCapacityRaiseNeverWorsens(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 40 && checked < 8; seed++ {
		sp := deltaInstance(t, seed)
		opts := deltaSuiteOpts(seed)
		mgr := state.NewManager(state.Config{})
		sess, createRes, err := mgr.Create(sp, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if createRes.Placement.Status != core.StatusOptimal {
			continue
		}
		checked++
		base := createRes.Placement.Objective
		var raises []spec.Delta
		for _, sw := range sp.Topology.SwitchList {
			raises = append(raises, spec.Delta{Op: spec.OpSetCapacity, Switch: sw.ID, Capacity: sw.Capacity + 2})
		}
		res, err := sess.Delta(raises, nil, nil)
		if err != nil {
			t.Fatalf("seed %d raise: %v", seed, err)
		}
		if res.Placement.Status != core.StatusOptimal {
			t.Errorf("seed %d: capacity raise turned optimal into %v", seed, res.Placement.Status)
			continue
		}
		if res.Placement.Objective > base+0.5 {
			t.Errorf("seed %d: objective rose from %g to %g after capacity raise", seed, base, res.Placement.Objective)
		}
	}
	if checked == 0 {
		t.Fatal("no optimal instance found in 40 seeds; generator drifted")
	}
}

// TestShrinkDeltasMinimizes checks the sequence shrinker against a
// synthetic predicate failure injected via an always-diverging
// comparison: a sequence that fails because of one specific delta must
// shrink to (nearly) that delta alone.
func TestShrinkDeltasMinimizes(t *testing.T) {
	sp := deltaInstance(t, 7)
	opts := deltaSuiteOpts(7)
	deltas, err := randgen.GenerateDeltas(sp, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	// A healthy sequence must come back unshrunk (not reproducible).
	if got := ShrinkDeltas(sp, deltas, opts); len(got) != len(deltas) {
		t.Fatalf("healthy sequence shrunk from %d to %d deltas", len(deltas), len(got))
	}
}
