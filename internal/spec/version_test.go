package spec_test

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rulefit/internal/core"
	"rulefit/internal/randgen"
	"rulefit/internal/spec"
)

// TestVersionReusesUnchangedPolicies is the reuse oracle. It drives
// randgen delta streams on seeds 1–50, then removes a rule and restores
// its policy, and after every step checks that:
//   - the version's build is reflect.DeepEqual to a fresh Build, and
//     shares a built policy with the version before exactly when the
//     step left that policy unchanged;
//   - the version's key equals the key rendered with nothing to reuse;
//   - two versions of a stream share a key exactly when their Canonical
//     bytes are equal.
//
// Every third version is keyed but not built, as on an identity
// answer, so the next build reuses policies across an unbuilt version.
func TestVersionReusesUnchangedPolicies(t *testing.T) {
	ops := map[string]int{}
	equalKeys := 0
	for seed := int64(1); seed <= 50; seed++ {
		sp := randgenProblem(t, randgen.FromSeed(seed))
		steps, err := randgen.GenerateDeltas(sp, 10, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cur := spec.NewVersion(sp, nil)
		prob := mustBuildVersion(t, cur)
		versions := []*spec.Version{cur}
		step := func(i int, d spec.Delta) {
			next := cur.Spec().Clone()
			if err := next.Apply(d); err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, i, d, err)
			}
			ops[d.Op]++
			v := spec.NewVersion(next, cur)
			versions = append(versions, v)
			if want := spec.NewVersion(next, nil).Key(); v.Key() != want {
				t.Fatalf("seed %d step %d %s: the key reusing unchanged parts differs from a fresh one", seed, i, d)
			}
			if i%3 == 1 {
				cur, prob = v, nil
				return
			}
			built := mustBuildVersion(t, v)
			if prob != nil {
				for j, pol := range built.Policies {
					was, now := cur.Spec().Policies[j], next.Policies[j]
					unchanged := was.Ingress == now.Ingress && slices.Equal(was.Rules, now.Rules)
					if reused := pol == prob.Policies[j]; reused != unchanged {
						t.Fatalf("seed %d step %d %s: policy %d reused=%v, unchanged=%v", seed, i, d, j, reused, unchanged)
					}
				}
			}
			cur, prob = v, built
		}
		for i, d := range steps {
			step(i, d)
		}
		for i, d := range removeThenRestore(cur.Spec()) {
			step(len(steps)+i, d)
		}
		for a := range versions {
			for b := a + 1; b < len(versions); b++ {
				sameKey := versions[a].Key() == versions[b].Key()
				if sameBytes := bytes.Equal(versions[a].Spec().Canonical(), versions[b].Spec().Canonical()); sameKey != sameBytes {
					t.Fatalf("seed %d: versions %d and %d share a key: %v, share canonical bytes: %v", seed, a, b, sameKey, sameBytes)
				}
				if sameKey {
					equalKeys++
				}
			}
		}
	}
	for _, op := range []string{spec.OpAddRule, spec.OpRemoveRule, spec.OpUpdatePolicy, spec.OpSetCapacity,
		spec.OpAddSwitch, spec.OpRemoveSwitch, spec.OpAddLink, spec.OpSetPaths} {
		if ops[op] == 0 {
			t.Errorf("no step applied %s (op counts: %v)", op, ops)
		}
	}
	if equalKeys == 0 {
		t.Error("no two versions of a stream were equal, so no revert was checked")
	}
}

// removeThenRestore removes the top rule of the first policy with two
// or more rules, then restores the policy's rule list as it was.
func removeThenRestore(p *spec.Problem) []spec.Delta {
	for _, pol := range p.Policies {
		if len(pol.Rules) >= 2 {
			return []spec.Delta{
				{Op: spec.OpRemoveRule, Ingress: pol.Ingress, Priority: pol.Rules[0].Priority},
				{Op: spec.OpUpdatePolicy, Ingress: pol.Ingress, Rules: slices.Clone(pol.Rules)},
			}
		}
	}
	return nil
}

// mustBuildVersion builds v and checks it against a fresh Build.
func mustBuildVersion(t *testing.T, v *spec.Version) *core.Problem {
	t.Helper()
	got, err := v.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := v.Spec().Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a build reusing unchanged policies differs from a fresh build")
	}
	return got
}

// TestKeyCoversEveryField changes each value reachable from a problem
// that populates every field, one at a time, and drops the last element
// of each non-empty list: every change must move the key. That the key
// decodes one way is FuzzSpecParse's check.
func TestKeyCoversEveryField(t *testing.T) {
	p := handBuilt()[0]
	base := spec.NewVersion(p, nil).Key()
	changes := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		check := func() {
			changes++
			if spec.NewVersion(p, nil).Key() == base {
				t.Errorf("changing %s leaves the key unchanged", path)
			}
		}
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path+"[]")
			}
		case reflect.Slice:
			if v.Len() == 0 {
				return
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path+"[]")
			}
			old := reflect.ValueOf(v.Interface())
			v.Set(v.Slice(0, v.Len()-1))
			check()
			v.Set(old)
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		default:
			old := reflect.ValueOf(v.Interface())
			scribble(v)
			check()
			v.Set(old)
		}
	}
	walk(reflect.ValueOf(p).Elem(), "Problem")
	if spec.NewVersion(p, nil).Key() != base {
		t.Fatal("the walk did not restore the problem")
	}
	if changes < 50 {
		t.Fatalf("only %d changes checked", changes)
	}
}

// keySlack is what NewVersion may allocate beyond its key's bytes and
// the key's room for added rules (1/64 of the key before): the Version
// and its per-policy tables, under 1 KB for 8 policies, and the
// rounding of a buffer over 32 KB up to whole 8 KB pages.
const keySlack = 1<<10 + 8<<10

// TestNewVersionAllocatesKeyOnce holds NewVersion to one buffer for the
// key, written in place: on perfbench's session-delta instance with
// one policy edited, the edit's version allocates at most the key's
// length, its room and keySlack.
func TestNewVersionAllocatesKeyOnce(t *testing.T) {
	p := randgenProblem(t, sessionConfig)
	prev := spec.NewVersion(p, nil)
	next := *p
	pol := p.Policies[3]
	if err := next.Apply(spec.Delta{Op: spec.OpRemoveRule, Ingress: pol.Ingress, Priority: pol.Rules[0].Priority}); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var v *spec.Version
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		v = spec.NewVersion(&next, prev)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(len(prev.Key()) + len(prev.Key())/64 + keySlack); per > limit {
		t.Fatalf("NewVersion allocates %d bytes for a %d-byte key, want at most %d", per, len(v.Key()), limit)
	}
	t.Logf("NewVersion allocates %d bytes for a %d-byte key", per, len(v.Key()))
}
