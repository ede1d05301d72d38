package state

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rulefit/internal/bench"
	"rulefit/internal/core"
	"rulefit/internal/invariant"
	"rulefit/internal/randgen"
	"rulefit/internal/spec"
)

// testSpec builds a tiny explicit-form instance from a randgen seed.
func testSpec(t *testing.T, seed int64) *spec.Problem {
	t.Helper()
	inst, err := randgen.Generate(randgen.FromSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return spec.FromCore(inst.Problem)
}

func testOpts() core.Options {
	return core.Options{Merging: true, RemoveRedundant: true, TimeLimit: 30 * time.Second}
}

// fp is the byte-identity projection used by the state tests.
func fp(pl *core.Placement) string {
	return fmt.Sprintf("%v|%.6f|%d|%v|%v", pl.Status, pl.Objective, pl.TotalRules, pl.Assign, pl.MergedAt)
}

// coldSolve re-solves an instance from scratch with no session caches.
func coldSolve(t *testing.T, sp *spec.Problem, opts core.Options) *core.Placement {
	t.Helper()
	prob, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.Place(prob, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// addRule is a fresh single-rule delta at a priority no generated
// policy uses.
func addRule(ingress int) spec.Delta {
	return spec.Delta{
		Op:      spec.OpAddRule,
		Ingress: ingress,
		Rule:    &spec.Rule{Pattern: "1*1*****", Action: "drop", Priority: 9001},
	}
}

// TestSessionLadder drives one session through the three ladder
// levels and checks every answer against a cold solve.
func TestSessionLadder(t *testing.T) {
	sp := testSpec(t, 1)
	rule := addRule(sp.Policies[0].Ingress)
	// Widen the pattern to this instance's rule width.
	w := len(sp.Policies[0].Rules[0].Pattern)
	rule.Rule.Pattern = "1" + strings.Repeat("*", w-1)

	m := NewManager(Config{})
	s, res, err := m.Create(sp, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathCold || res.Version != 1 {
		t.Fatalf("create: path=%s version=%d, want cold v1", res.Path, res.Version)
	}
	if got, want := fp(res.Placement), fp(coldSolve(t, sp, testOpts())); got != want {
		t.Fatalf("create placement differs from cold solve:\n got %s\nwant %s", got, want)
	}
	baseFP := fp(res.Placement)

	// L1: one changed policy, the rest served from the encode cache.
	res, err = s.Delta([]spec.Delta{rule}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathWarm || res.Version != 2 {
		t.Fatalf("delta: path=%s version=%d, want warm v2", res.Path, res.Version)
	}
	if len(sp.Policies) > 1 && res.CacheStats.PolicyHits != int64(len(sp.Policies)-1) {
		t.Fatalf("delta cache stats %+v, want %d policy hits", res.CacheStats, len(sp.Policies)-1)
	}
	after := sp.Clone()
	if err := after.Apply(rule); err != nil {
		t.Fatal(err)
	}
	if got, want := fp(res.Placement), fp(coldSolve(t, after, testOpts())); got != want {
		t.Fatalf("warm delta differs from cold solve:\n got %s\nwant %s", got, want)
	}

	// L0: removing the rule restores the original canonical bytes.
	res, err = s.Delta([]spec.Delta{{
		Op: spec.OpRemoveRule, Ingress: rule.Ingress, Priority: rule.Rule.Priority,
	}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathIdentity || res.Version != 3 {
		t.Fatalf("revert delta: path=%s version=%d, want identity v3", res.Path, res.Version)
	}
	if fp(res.Placement) != baseFP {
		t.Fatalf("add-then-remove did not restore the original placement")
	}
}

// TestBadDeltaLeavesSessionUntouched asserts failed deltas roll back
// completely: version, spec, and placement are unchanged.
func TestBadDeltaLeavesSessionUntouched(t *testing.T) {
	sp := testSpec(t, 2)
	m := NewManager(Config{})
	s, res, err := m.Create(sp, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	before := fp(res.Placement)

	for _, deltas := range [][]spec.Delta{
		nil,
		{{Op: "resize_flux_capacitor"}},
		{{Op: spec.OpAddRule, Ingress: 424242, Rule: &spec.Rule{Pattern: "1*", Action: "drop", Priority: 1}}},
		{{Op: spec.OpSetCapacity, Switch: 0, Capacity: -3}},
		{addRule(sp.Policies[0].Ingress), {Op: spec.OpRemoveRule, Ingress: 424242, Priority: 9001}},
	} {
		if _, err := s.Delta(deltas, nil, nil); !errors.Is(err, ErrBadDelta) {
			t.Fatalf("deltas %v: err=%v, want ErrBadDelta", deltas, err)
		}
	}
	version, pl := s.Snapshot()
	if version != 1 || fp(pl) != before {
		t.Fatalf("failed deltas mutated the session: version=%d", version)
	}
	if !bytes.Equal(s.Spec().Canonical(), sp.Clone().Canonical()) {
		t.Fatal("failed deltas mutated the authoritative spec")
	}
}

// TestSnapshotAllocatesNothing pins that GET /v1/session/{id}, which
// reads Snapshot under the session lock, copies nothing; a copy of the
// instance is Spec's job.
func TestSnapshotAllocatesNothing(t *testing.T) {
	s, _, err := NewManager(Config{}).Create(testSpec(t, 1), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { s.Snapshot() }); n != 0 {
		t.Fatalf("Snapshot allocates %.0f times per call, want 0", n)
	}
}

// TestManagerLRUEviction fills the manager past MaxSessions and
// checks the least-recently-used session is evicted and logged.
func TestManagerLRUEviction(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	m := NewManager(Config{MaxSessions: 2, Logger: logger})

	var ids []string
	for seed := int64(1); seed <= 2; seed++ {
		s, _, err := m.Create(testSpec(t, seed), testOpts())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID())
	}
	// Touch the older session so the newer one becomes the LRU victim.
	if _, err := m.Get(ids[0]); err != nil {
		t.Fatal(err)
	}
	s3, _, err := m.Create(testSpec(t, 3), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("live sessions = %d, want 2", m.Len())
	}
	if _, err := m.Get(ids[1]); !errors.Is(err, ErrNoSession) {
		t.Fatalf("expected LRU victim %s evicted, got err=%v", ids[1], err)
	}
	for _, id := range []string{ids[0], s3.ID()} {
		if _, err := m.Get(id); err != nil {
			t.Fatalf("session %s should be live: %v", id, err)
		}
	}
	if !strings.Contains(buf.String(), "session evicted") || !strings.Contains(buf.String(), ids[1]) {
		t.Fatalf("eviction not logged:\n%s", buf.String())
	}

	if m.Delete(s3.ID()) != true || m.Delete(s3.ID()) != false {
		t.Fatal("Delete should report liveness")
	}
}

// TestManagerNonPositiveMaxSessions: a cap of zero or less means the
// default, so the manager still holds sessions.
func TestManagerNonPositiveMaxSessions(t *testing.T) {
	for _, n := range []int{0, -1} {
		m := NewManager(Config{MaxSessions: n})
		if _, _, err := m.Create(testSpec(t, 1), testOpts()); err != nil {
			t.Fatal(err)
		}
		if m.Len() != 1 {
			t.Fatalf("MaxSessions %d: %d live sessions, want 1", n, m.Len())
		}
	}
}

// TestConcurrentDeltasSerialize fires commutative deltas from many
// goroutines; the session must serialize them into a final state
// identical to a sequential application.
func TestConcurrentDeltasSerialize(t *testing.T) {
	sp := testSpec(t, 4)
	w := len(sp.Policies[0].Rules[0].Pattern)
	ingress := sp.Policies[0].Ingress
	const n = 6
	mkDelta := func(i int) spec.Delta {
		pat := strings.Repeat("*", w)
		return spec.Delta{Op: spec.OpAddRule, Ingress: ingress, Rule: &spec.Rule{
			Pattern: "0" + pat[1:], Action: "drop", Priority: 9100 + i,
		}}
	}

	m := NewManager(Config{})
	s, _, err := m.Create(sp, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Delta([]spec.Delta{mkDelta(i)}, nil, nil)
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent delta %d: %v", i, err)
		}
	}
	version, pl := s.Snapshot()
	if version != 1+n {
		t.Fatalf("version = %d, want %d", version, 1+n)
	}

	seq := sp.Clone()
	for i := 0; i < n; i++ {
		if err := seq.Apply(mkDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fp(pl), fp(coldSolve(t, seq, testOpts())); got != want {
		t.Fatalf("concurrent final placement differs from sequential cold solve:\n got %s\nwant %s", got, want)
	}
}

// streamSpec is a four-policy instance whose single-rule edits solve in
// milliseconds, for the long delta streams below.
func streamSpec(t *testing.T, sharedDrops int) *spec.Problem {
	t.Helper()
	inst, err := randgen.Generate(randgen.Config{
		Seed: 7, Topo: randgen.TopoFatTree, FatTreeK: 4, Ingresses: 4, PathsPerIngress: 2,
		RulesPerPolicy: 6, Width: 8, OverlapDensity: 0.5, DropFraction: 0.4,
		SharedDrops: sharedDrops, Capacity: randgen.CapSlack,
	})
	if err != nil {
		t.Fatal(err)
	}
	return spec.FromCore(inst.Problem)
}

// streamEdit is the i-th edit of a stream over sp's policies: in even
// rounds each policy gains a drop rule, in odd rounds it loses it again,
// so every add is a policy version the session has not seen before.
func streamEdit(sp *spec.Problem, i int) spec.Delta {
	n := len(sp.Policies)
	round, pol := i/n, sp.Policies[i%n]
	if round%2 == 1 {
		return spec.Delta{Op: spec.OpRemoveRule, Ingress: pol.Ingress, Priority: 9000 + round - 1}
	}
	w := len(pol.Rules[0].Pattern)
	return spec.Delta{Op: spec.OpAddRule, Ingress: pol.Ingress, Rule: &spec.Rule{
		Pattern: fmt.Sprintf("%0*b", w, round%(1<<w)), Action: "drop", Priority: 9000 + round,
	}}
}

// TestSessionTablesStayBounded streams single-rule deltas through a
// decomposed session and checks that no per-session table outgrows its
// bound: four proven answers in the memo, and eight versions per policy
// in the encode and fragment caches.
func TestSessionTablesStayBounded(t *testing.T) {
	sp := streamSpec(t, 0)
	opts := core.Options{RemoveRedundant: true, TimeLimit: 30 * time.Second}
	m := NewManager(Config{})
	s, _, err := m.Create(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	perPolicy := 8 * len(sp.Policies)
	cur := sp.Clone()
	const edits = 240
	for i := 0; i < edits; i++ {
		d := streamEdit(sp, i)
		res, err := s.Delta([]spec.Delta{d}, nil, nil)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if err := cur.Apply(d); err != nil {
			t.Fatal(err)
		}
		if i%60 == 59 {
			if got, want := fp(res.Placement), fp(coldSolve(t, cur, opts)); got != want {
				t.Fatalf("edit %d (%s): answer differs from cold solve:\n got %s\nwant %s", i, res.Path, got, want)
			}
		}
		policies, merges := s.cache.Len()
		if s.memo.Len() > 4 || policies > perPolicy || s.sols.Len() > perPolicy || merges != 0 {
			t.Fatalf("edit %d: memo %d (cap 4), encode %d + merge %d, fragments %d (cap %d each)",
				i, s.memo.Len(), policies, merges, s.sols.Len(), perPolicy)
		}
	}
	if s.memo.Len() != 4 || s.sols.Len() != perPolicy {
		t.Fatalf("after %d edits the memo holds %d and the fragment cache %d; the stream should fill both",
			edits, s.memo.Len(), s.sols.Len())
	}
}

// TestRecentRevertsAnswerIdentity: after a stream long enough to evict
// older memo entries, an edit and its inverse, and then the inverse of
// the edit before, restore instances from two and four answers back,
// and both answer from the identity memo. The create instance, further
// back than the memo reaches, re-solves.
func TestRecentRevertsAnswerIdentity(t *testing.T) {
	sp := streamSpec(t, 0)
	opts := core.Options{RemoveRedundant: true, TimeLimit: 30 * time.Second}
	m := NewManager(Config{})
	s, _, err := m.Create(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := len(sp.Policies[0].Rules[0].Pattern)
	add := func(pol, prio int) spec.Delta {
		return spec.Delta{Op: spec.OpAddRule, Ingress: sp.Policies[pol].Ingress, Rule: &spec.Rule{
			Pattern: "1" + strings.Repeat("*", w-1), Action: "drop", Priority: prio}}
	}
	remove := func(pol, prio int) spec.Delta {
		return spec.Delta{Op: spec.OpRemoveRule, Ingress: sp.Policies[pol].Ingress, Priority: prio}
	}
	type step struct {
		d    spec.Delta
		want string // expected path; "" for any path but identity
	}
	const fresh = 8 // twice the memo's depth
	var steps []step
	for i := 0; i < fresh; i++ {
		steps = append(steps, step{add(i%len(sp.Policies), 9100+i), ""})
	}
	steps = append(steps,
		step{add(0, 9200), ""},
		step{add(1, 9201), ""},
		step{remove(1, 9201), PathIdentity}, // two answers back
		step{remove(0, 9200), PathIdentity}, // four answers back
	)
	cur := sp.Clone()
	for i, st := range steps {
		res, err := s.Delta([]spec.Delta{st.d}, nil, nil)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if err := cur.Apply(st.d); err != nil {
			t.Fatal(err)
		}
		if st.want != "" && res.Path != st.want {
			t.Fatalf("step %d: path %s, want %s", i, res.Path, st.want)
		}
		if st.want == "" && res.Path == PathIdentity {
			t.Fatalf("step %d: fresh instance answered from the identity memo", i)
		}
		if got, want := fp(res.Placement), fp(coldSolve(t, cur, opts)); got != want {
			t.Fatalf("step %d (%s): answer differs from cold solve:\n got %s\nwant %s", i, res.Path, got, want)
		}
	}

	// Back to the create instance, evicted long ago: a real solve.
	var back []spec.Delta
	for i := fresh - 1; i >= 0; i-- {
		back = append(back, remove(i%len(sp.Policies), 9100+i))
	}
	res, err := s.Delta(back, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path == PathIdentity {
		t.Fatal("an instance older than the memo's depth answered from the memo")
	}
	if got, want := fp(res.Placement), fp(coldSolve(t, sp, opts)); got != want {
		t.Fatalf("return to create instance differs from cold solve:\n got %s\nwant %s", got, want)
	}
}

// TestMemoizesOnlyProvenAnswers: an answer a deadline cut short is not
// a function of the instance, so a revert to its instance must solve
// again rather than replay it. The instance is merge-grid's m3/c9 cell
// (Table II), merging on, with a deadline no solve can meet.
func TestMemoizesOnlyProvenAnswers(t *testing.T) {
	prob, err := bench.Build(bench.Config{K: 4, Ingresses: 8, PathsPerIngress: 4, Rules: 8, Capacity: 9, Mergeable: 3})
	if err != nil {
		t.Fatal(err)
	}
	sp := spec.FromCore(prob)
	opts := core.Options{Merging: true, TimeLimit: time.Nanosecond}
	m := NewManager(Config{})
	s, res, err := m.Create(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Placement.Status; st == core.StatusOptimal || st == core.StatusInfeasible {
		t.Fatalf("create proved %v within a nanosecond; the test needs a deadline-cut answer", st)
	}
	sw := sp.Topology.SwitchList[0]
	for i, capacity := range []int{sw.Capacity + 1, sw.Capacity} {
		res, err = s.Delta([]spec.Delta{{Op: spec.OpSetCapacity, Switch: sw.ID, Capacity: capacity}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Path == PathIdentity {
			t.Fatalf("delta %d: replayed a %v answer from the identity memo", i, res.Placement.Status)
		}
	}
	if s.memo.Len() != 0 {
		t.Fatalf("memo holds %d unproven answers", s.memo.Len())
	}
}

// TestMemoizesSATSatisfyOnlyAnswers: under SatisfyOnly the SAT
// backend's first model is proven though its status is feasible, so an
// edit followed by its inverse answers from the identity memo.
func TestMemoizesSATSatisfyOnlyAnswers(t *testing.T) {
	sp := testSpec(t, 1)
	opts := core.Options{Backend: core.BackendSAT, SatisfyOnly: true, TimeLimit: 30 * time.Second}
	m := NewManager(Config{})
	s, res, err := m.Create(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.Status != core.StatusFeasible {
		t.Fatalf("create: status %v, want feasible", res.Placement.Status)
	}
	rule := addRule(sp.Policies[0].Ingress)
	rule.Rule.Pattern = "1" + strings.Repeat("*", len(sp.Policies[0].Rules[0].Pattern)-1)
	undo := spec.Delta{Op: spec.OpRemoveRule, Ingress: rule.Ingress, Priority: rule.Rule.Priority}
	for i, d := range []spec.Delta{rule, undo} {
		if res, err = s.Delta([]spec.Delta{d}, nil, nil); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	if res.Path != PathIdentity {
		t.Fatalf("revert: path %s, want %s", res.Path, PathIdentity)
	}
	if got, want := fp(res.Placement), fp(coldSolve(t, sp, opts)); got != want {
		t.Fatalf("revert differs from cold solve:\n got %s\nwant %s", got, want)
	}
}

// TestMergeTableBounded: a merging-on session keeps at most four
// merge-search results, however many instances it solves, and a
// capacity-only delta, which leaves every policy as it was, still
// serves the merge search from the table.
func TestMergeTableBounded(t *testing.T) {
	sp := streamSpec(t, 1)
	m := NewManager(Config{})
	s, _, err := m.Create(sp, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*len(sp.Policies); i++ {
		if _, err := s.Delta([]spec.Delta{streamEdit(sp, i)}, nil, nil); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if _, merges := s.cache.Len(); merges > 4 {
			t.Fatalf("edit %d: merge table holds %d entries, want at most 4", i, merges)
		}
	}
	sw := sp.Topology.SwitchList[0]
	res, err := s.Delta([]spec.Delta{{Op: spec.OpSetCapacity, Switch: sw.ID, Capacity: sw.Capacity + 1}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathWarm || res.CacheStats.MergeHits != 1 {
		t.Fatalf("capacity delta: path %s, cache stats %+v; want warm with 1 merge hit", res.Path, res.CacheStats)
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// parentEditBytes is what one edit of TestEditAllocationBudget's
// stream allocated before the encoder stopped hashing its variables,
// the memo key was written in place and edits became copy-on-write:
// the same test body measured 807 KB per edit (linux/amd64, Go 1.24).
const parentEditBytes = 807 << 10

// TestEditAllocationBudget holds a session edit to half of
// parentEditBytes. On perfbench's session-delta instance class
// (randgen seed 1, fat-tree k=4, 8 policies × 100 five-tuple rules,
// slack capacities) it streams single-rule edits, round-robin over the
// policies and alternating between removing one of the policy's rules
// and adding a fresh drop rule, so no instance repeats: each edit
// misses the memo, hits seven fragments and re-certifies one policy.
// It measures the bytes the stream allocates per edit.
func TestEditAllocationBudget(t *testing.T) {
	if invariant.Enabled {
		t.Skip("under rulefitdebug every edit also builds its instance afresh")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes what allocates")
	}
	inst, err := randgen.Generate(randgen.Config{
		Seed: 1, Topo: randgen.TopoFatTree, FatTreeK: 4, Ingresses: 8,
		PathsPerIngress: 2, RulesPerPolicy: 100, Capacity: randgen.CapSlack,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := spec.FromCore(inst.Problem)
	s, _, err := NewManager(Config{}).Create(sp, core.Options{TimeLimit: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	n := len(sp.Policies)
	edit := func(i int) spec.Delta {
		pol := sp.Policies[i%n]
		r := pol.Rules[i/n]
		if i%2 == 0 {
			return spec.Delta{Op: spec.OpRemoveRule, Ingress: pol.Ingress, Priority: r.Priority}
		}
		return spec.Delta{Op: spec.OpAddRule, Ingress: pol.Ingress, Rule: &spec.Rule{
			Pattern: r.Pattern, Action: "drop", Priority: 1000 + i}}
	}
	const warm, edits = 8, 48
	var before, after runtime.MemStats
	for i := 0; i < warm+edits; i++ {
		if i == warm {
			runtime.ReadMemStats(&before)
		}
		res, err := s.Delta([]spec.Delta{edit(i)}, nil, nil)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if res.Path != PathWarm || res.SolStats.Misses != 1 || res.SolStats.Hits != int64(n-1) {
			t.Fatalf("edit %d: path %s, %d fragment hits and %d misses; want warm, %d and 1",
				i, res.Path, res.SolStats.Hits, res.SolStats.Misses, n-1)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / edits
	t.Logf("an edit allocates %d KB", per>>10)
	if per > parentEditBytes/2 {
		t.Fatalf("an edit allocates %d KB, want at most %d KB (half of %d KB)", per>>10, parentEditBytes>>11, parentEditBytes>>10)
	}
}
