package core

import (
	"fmt"
	"reflect"
	"testing"

	"rulefit/internal/policy"
	"rulefit/internal/routing"
	"rulefit/internal/topology"
)

// twoIngressProblem builds a ring with two routed ingresses whose
// policies share an identical DROP rule (a §IV-B merge group), so the
// cache test exercises the per-policy artifacts and the cross-policy
// merge search together.
func twoIngressProblem(t *testing.T, capacity int) *Problem {
	t.Helper()
	topo, err := topology.Ring(4, capacity)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := routing.BuildRouting(topo, []routing.PortPair{{In: 0, Out: 2}, {In: 1, Out: 3}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	polA := policy.MustNew(0, []policy.Rule{
		mk("1100****", policy.Permit, 4),
		mk("11******", policy.Drop, 3),
		mk("1111****", policy.Permit, 2), // redundant under rule 4's shadow pattern
		mk("00******", policy.Drop, 1),
	})
	polB := policy.MustNew(1, []policy.Rule{
		mk("0011****", policy.Permit, 3),
		mk("00******", policy.Drop, 2), // identical to polA's drop: mergeable
		mk("10******", policy.Drop, 1),
	})
	return &Problem{Network: topo, Routing: rt, Policies: []*policy.Policy{polA, polB}}
}

// encodeFingerprint flattens the cache-relevant encoding artifacts for
// deep comparison.
type encodeFingerprint struct {
	Policies []*policy.Policy
	Drops    [][]int
	Vars     []evar
	Imps     [][2]int
	Covers   [][]int
	Merges   []mergeCons
	CapRows  []capRow
	Weights  []int64
}

func fingerprintEncoding(e *encoding) encodeFingerprint {
	fp := encodeFingerprint{
		Policies: e.policies,
		Vars:     e.vars,
		Imps:     e.imps,
		Covers:   e.covers,
		Merges:   e.merges,
		CapRows:  e.capRows,
		Weights:  e.trafficWeight,
	}
	for _, g := range e.graphs {
		fp.Drops = append(fp.Drops, g.Drops())
	}
	return fp
}

// TestEncodeCacheArtifactsMatchFresh proves a warm cache reproduces
// the cold encoding exactly: every artifact the encoding derives from
// cached stages is deeply equal to a from-scratch build. The traffic
// objective makes the encoding fill its weights, so they are compared
// too.
func TestEncodeCacheArtifactsMatchFresh(t *testing.T) {
	prob := twoIngressProblem(t, 10)
	opts := Options{Merging: true, RemoveRedundant: true, Objective: ObjTraffic}.withDefaults()

	fresh, err := buildEncoding(prob, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.trafficWeight) == 0 {
		t.Fatal("the traffic objective left the weights empty")
	}

	cache := NewEncodeCache(len(prob.Policies))
	opts.EncodeCache = cache
	if _, err := buildEncoding(prob, opts, nil); err != nil {
		t.Fatal(err) // populates the cache
	}
	warm, err := buildEncoding(prob, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := fingerprintEncoding(warm), fingerprintEncoding(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("warm encoding differs from fresh:\n got %+v\nwant %+v", got, want)
	}
	st := cache.Stats()
	if st.PolicyHits != int64(len(prob.Policies)) || st.PolicyMisses != int64(len(prob.Policies)) {
		t.Fatalf("policy cache counters: %+v, want %d hits and misses", st, len(prob.Policies))
	}
	if st.MergeHits != 1 || st.MergeMisses != 1 {
		t.Fatalf("merge cache counters: %+v, want 1 hit and 1 miss", st)
	}
}

// placementKey is the byte-identity projection used across the delta
// tests: status, objective, totals, and every assignment.
func placementKey(pl *Placement) string {
	return fmt.Sprintf("%v|%.6f|%d|%v|%v", pl.Status, pl.Objective, pl.TotalRules, pl.Assign, pl.MergedAt)
}

// TestEncodeCacheByteIdentity asserts Place returns byte-identical
// placements with and without a warm cache attached, across the
// encoding-relevant option combinations.
func TestEncodeCacheByteIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"merging", Options{Merging: true}},
		{"reduced", Options{RemoveRedundant: true}},
		{"merging+reduced", Options{Merging: true, RemoveRedundant: true}},
		{"traffic", Options{Objective: ObjTraffic, Merging: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, capacity := range []int{2, 10} {
				prob := twoIngressProblem(t, capacity)
				cold := place(t, prob, tc.opts)

				warmOpts := tc.opts
				warmOpts.EncodeCache = NewEncodeCache(len(prob.Policies))
				place(t, prob, warmOpts) // populate
				warm := place(t, prob, warmOpts)

				if got, want := placementKey(warm), placementKey(cold); got != want {
					t.Fatalf("capacity %d: warm placement differs:\n got %s\nwant %s", capacity, got, want)
				}
				if !reflect.DeepEqual(warm.Assign, cold.Assign) || !reflect.DeepEqual(warm.MergedAt, cold.MergedAt) {
					t.Fatalf("capacity %d: warm assignment structures differ", capacity)
				}
			}
		})
	}
}

// TestEncodeCacheServesClones proves callers cannot corrupt the cache
// through a served policy: mutating a hit's rules leaves later hits
// equal to a fresh computation.
func TestEncodeCacheServesClones(t *testing.T) {
	prob := twoIngressProblem(t, 10)
	cache := NewEncodeCache(len(prob.Policies))
	opts := Options{Merging: true, EncodeCache: cache}.withDefaults()
	if _, err := buildEncoding(prob, opts, nil); err != nil {
		t.Fatal(err)
	}

	first, _, ok := cache.lookupPolicy(prob.Policies[0], false)
	if !ok {
		t.Fatal("expected cache hit")
	}
	first.Rules[0].Action = policy.Drop // attack the served copy
	first.Rules = first.Rules[:1]

	second, _, ok := cache.lookupPolicy(prob.Policies[0], false)
	if !ok {
		t.Fatal("expected second cache hit")
	}
	if !reflect.DeepEqual(second, prob.Policies[0].Clone()) {
		t.Fatalf("cache entry corrupted by caller mutation:\n got %v\nwant %v", second, prob.Policies[0])
	}
}
