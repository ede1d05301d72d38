package diffcheck

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rulefit/internal/core"
	"rulefit/internal/obs"
	"rulefit/internal/spec"
	"rulefit/internal/state"
)

// Delta-oracle failure kinds reported by CheckDeltas.
const (
	// KindDeltaMismatch: a session (warm-path) answer differs from a
	// cold core.Place of the fully-updated instance — the central
	// byte-identity contract of the stateful layer.
	KindDeltaMismatch = "delta-mismatch"
	// KindDeltaReject: the session and the reference disagree on
	// whether a delta is applicable at all.
	KindDeltaReject = "delta-reject-divergence"
	// KindDeltaVersion: the session version did not advance by exactly
	// one on an accepted delta.
	KindDeltaVersion = "delta-version"
	// KindDeltaSolve: a reference solve or session create errored.
	KindDeltaSolve = "delta-solve-error"
)

// DeltaResult is the outcome of replaying one delta sequence warm
// (through a state session) and cold (core.Place from scratch at every
// step).
type DeltaResult struct {
	// Steps counts the accepted deltas (consistent rejections are
	// skipped, not failed).
	Steps int
	// Paths counts how each accepted step was answered
	// ("identity"/"warm"/"cold"), for coverage reporting.
	Paths map[string]int
	// SolvePaths counts the core.SolvePath of each accepted step that
	// ran core.Place (warm or cold; an identity step replays a memo).
	SolvePaths map[core.SolvePath]int
	// Fallbacks counts why each fallback step left the decomposition:
	// "uncertified" or "stitch_rejected", the counter set on the step's
	// "decompose" span.
	Fallbacks map[string]int
	// Failures holds every divergence; the replay stops at the first
	// mismatch since later state would be tainted.
	Failures []Failure
}

// Failed reports whether the sequence diverged anywhere.
func (r *DeltaResult) Failed() bool { return len(r.Failures) > 0 }

// addf records a failure.
func (r *DeltaResult) addf(kind, format string, args ...any) {
	r.Failures = append(r.Failures, Failure{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// Summary renders the failures for logs.
func (r *DeltaResult) Summary() string {
	if !r.Failed() {
		return "ok"
	}
	out := ""
	for i, f := range r.Failures {
		if i > 0 {
			out += "; "
		}
		out += f.String()
	}
	return out
}

// CheckDeltas is the delta-vs-cold differential oracle: it creates a
// stateful session on sp, then applies each delta through the session
// (which answers via the identity/warm/cold ladder) AND to a reference
// clone solved cold with a fresh core.Place. At the session create and
// after every accepted delta the two placements must have identical
// fingerprints. Deltas both sides reject are skipped consistently —
// that keeps shrunk sequences (where removing a prefix can orphan a
// later delta) replayable.
func CheckDeltas(sp *spec.Problem, deltas []spec.Delta, coreOpts core.Options) *DeltaResult {
	res := &DeltaResult{Paths: map[string]int{}, SolvePaths: map[core.SolvePath]int{}, Fallbacks: map[string]int{}}
	mgr := state.NewManager(state.Config{})
	sess, createRes, err := mgr.Create(sp, coreOpts)
	if err != nil {
		res.addf(KindDeltaSolve, "session create: %v", err)
		return res
	}
	cold := sp.Clone()
	coldFP, err := coldFingerprint(cold, coreOpts)
	if err != nil {
		res.addf(KindDeltaSolve, "cold create: %v", err)
		return res
	}
	if fp := Fingerprint(createRes.Placement); fp != coldFP {
		res.addf(KindDeltaMismatch, "create: session answered\n%s\ncold solve answered\n%s", fp, coldFP)
		return res
	}

	version := createRes.Version
	for i, d := range deltas {
		req := obs.NewRequestCtx("")
		warmRes, warmErr := sess.Delta([]spec.Delta{d}, req, nil)
		cand := cold.Clone()
		coldErr := cand.Apply(d)
		if coldErr == nil {
			var prob *core.Problem
			if prob, coldErr = cand.Build(); coldErr == nil {
				coldErr = prob.Validate()
			}
		}
		if (warmErr == nil) != (coldErr == nil) {
			res.addf(KindDeltaReject, "step %d %s: session err=%v, reference err=%v", i, d, warmErr, coldErr)
			return res
		}
		if warmErr != nil {
			continue // both sides reject: consistent skip
		}
		cold = cand
		if warmRes.Version != version+1 {
			res.addf(KindDeltaVersion, "step %d %s: version %d after %d", i, d, warmRes.Version, version)
			return res
		}
		version = warmRes.Version
		res.Paths[warmRes.Path]++
		if warmRes.Path != state.PathIdentity {
			res.SolvePaths[warmRes.Placement.Stats.SolvePath]++
			if cause := fallbackCause(req.Trace); cause != "" {
				res.Fallbacks[cause]++
			}
		}
		res.Steps++
		coldFP, err := coldFingerprint(cold, coreOpts)
		if err != nil {
			res.addf(KindDeltaSolve, "step %d %s cold: %v", i, d, err)
			return res
		}
		if fp := Fingerprint(warmRes.Placement); fp != coldFP {
			res.addf(KindDeltaMismatch, "step %d %s: %s path answered\n%s\ncold solve answered\n%s",
				i, d, warmRes.Path, fp, coldFP)
			return res
		}
	}
	return res
}

// fallbackCause returns the counter a fallback set on the trace's
// "decompose" span, "uncertified" or "stitch_rejected", or "" when the
// trace holds no fallback.
func fallbackCause(tr *obs.Trace) string {
	for _, root := range tr.Roots() {
		for _, sp := range root.Children() {
			if sp.Name() != "decompose" {
				continue
			}
			for _, cause := range []string{"uncertified", "stitch_rejected"} {
				if _, ok := sp.Counter(cause); ok {
					return cause
				}
			}
		}
	}
	return ""
}

// coldFingerprint builds and solves a spec problem from scratch with
// no cache state and returns the placement fingerprint.
func coldFingerprint(sp *spec.Problem, coreOpts core.Options) (string, error) {
	prob, err := sp.Build()
	if err != nil {
		return "", err
	}
	if err := prob.Validate(); err != nil {
		return "", err
	}
	pl, err := core.Place(prob, coreOpts)
	if err != nil {
		return "", err
	}
	return Fingerprint(pl), nil
}

// DeltaFixtureSchema identifies the delta-sequence regression fixture
// format. Like FixtureSchema, fields are additive-only.
const DeltaFixtureSchema = "rulefit-deltacheck/v1"

// DeltaFixture is a self-contained delta-oracle reproducer: an
// explicit base problem, the solver options, and the delta sequence
// that diverged. Committed fixtures live under
// testdata/regressions/delta/ and are replayed by TestDeltaRegressions.
type DeltaFixture struct {
	Schema  string         `json:"schema"`
	Note    string         `json:"note,omitempty"`
	Seed    int64          `json:"seed,omitempty"`
	Options FixtureOptions `json:"options"`
	Problem *spec.Problem  `json:"problem"`
	Deltas  []spec.Delta   `json:"deltas"`
}

// NewDeltaFixture packages a failing (or exemplar) delta sequence.
func NewDeltaFixture(sp *spec.Problem, deltas []spec.Delta, coreOpts core.Options, seed int64, note string) *DeltaFixture {
	return &DeltaFixture{
		Schema:  DeltaFixtureSchema,
		Note:    note,
		Seed:    seed,
		Options: fixtureOptions(coreOpts),
		Problem: sp.Clone(),
		Deltas:  append([]spec.Delta(nil), deltas...),
	}
}

// Replay runs the fixture through the delta oracle.
func (f *DeltaFixture) Replay() (*DeltaResult, error) {
	if f.Schema != DeltaFixtureSchema {
		return nil, fmt.Errorf("diffcheck: delta fixture schema %q, want %q", f.Schema, DeltaFixtureSchema)
	}
	opts, err := f.Options.CoreOptions()
	if err != nil {
		return nil, err
	}
	if err := f.Problem.ExplicitOnly(); err != nil {
		return nil, err
	}
	return CheckDeltas(f.Problem, f.Deltas, opts), nil
}

// WriteFile writes the fixture as indented JSON.
func (f *DeltaFixture) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadDeltaFixture reads a delta fixture file.
func LoadDeltaFixture(path string) (*DeltaFixture, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f DeltaFixture
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("diffcheck: %s: %w", path, err)
	}
	return &f, nil
}

// ShrinkDeltas minimizes a failing delta sequence: it greedily drops
// deltas (whole halves first, then single steps) while CheckDeltas
// still fails. Consistent-rejection skipping in CheckDeltas keeps
// truncated sequences replayable even when a dropped delta orphans a
// later one. Returns the input unchanged if the failure does not
// reproduce.
func ShrinkDeltas(sp *spec.Problem, deltas []spec.Delta, coreOpts core.Options) []spec.Delta {
	failing := func(ds []spec.Delta) bool {
		return CheckDeltas(sp, ds, coreOpts).Failed()
	}
	if !failing(deltas) {
		return deltas
	}
	cur := append([]spec.Delta(nil), deltas...)
	// Halving pass: try dropping large chunks first.
	for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(cur); {
			cand := append(append([]spec.Delta(nil), cur[:start]...), cur[start+chunk:]...)
			if failing(cand) {
				cur = cand
			} else {
				start += chunk
			}
		}
	}
	return cur
}
