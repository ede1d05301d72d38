package diffcheck

import (
	"bytes"
	"encoding/json"
	"fmt"

	"rulefit/internal/core"
	"rulefit/internal/daemon"
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
	// KindDeltaSolve: a reference solve or session create errored, or
	// an answer has no wire encoding.
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
	Failures
}

// wireBytes is the answer identity the delta oracle compares: the JSON
// of the placement's wire form, the bytes the daemon serves and
// internal/load hashes.
func wireBytes(pl *core.Placement) ([]byte, error) {
	return json.Marshal(daemon.EncodePlacement(pl))
}

// CheckDeltas is the delta-vs-cold differential oracle: it creates a
// stateful session on sp, then applies each delta through the session
// (which answers via the identity/warm/cold ladder) AND to a reference
// clone solved cold with a fresh core.Place. At the session create and
// after every accepted delta the two placements must encode to the same
// wire bytes. Deltas both sides reject are skipped consistently — that
// keeps shrunk sequences (where removing a prefix can orphan a later
// delta) replayable.
func CheckDeltas(sp *spec.Problem, deltas []spec.Delta, coreOpts core.Options) *DeltaResult {
	res := &DeltaResult{Paths: map[string]int{}, SolvePaths: map[core.SolvePath]int{}, Fallbacks: map[string]int{}}
	// matchesCold reports whether the session's answer pl is, byte for
	// byte on the wire, a cold core.Place of prob, and records a
	// failure if not.
	matchesCold := func(step string, pl *core.Placement, prob *core.Problem) bool {
		coldPl, err := core.Place(prob, coreOpts)
		if err != nil {
			res.addf(KindDeltaSolve, "%s cold: %v", step, err)
			return false
		}
		got, err := wireBytes(pl)
		if err != nil {
			res.addf(KindDeltaSolve, "%s: encoding the session answer: %v", step, err)
			return false
		}
		want, err := wireBytes(coldPl)
		if err != nil {
			res.addf(KindDeltaSolve, "%s: encoding the cold answer: %v", step, err)
			return false
		}
		if !bytes.Equal(got, want) {
			res.addf(KindDeltaMismatch, "%s: session answered\n%s\ncold solve answered\n%s", step, got, want)
			return false
		}
		return true
	}
	mgr := state.NewManager(state.Config{})
	sess, createRes, err := mgr.Create(sp, coreOpts)
	if err != nil {
		res.addf(KindDeltaSolve, "session create: %v", err)
		return res
	}
	cold := sp.Clone()
	prob, err := buildValid(cold)
	if err != nil {
		res.addf(KindDeltaSolve, "cold create: %v", err)
		return res
	}
	if !matchesCold("create", createRes.Placement, prob) {
		return res
	}

	version := createRes.Version
	for i, d := range deltas {
		req := obs.NewRequestCtx("")
		warmRes, warmErr := sess.Delta([]spec.Delta{d}, req, nil)
		cand := cold.Clone()
		coldErr := cand.Apply(d)
		if coldErr == nil {
			prob, coldErr = buildValid(cand)
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
		if !matchesCold(fmt.Sprintf("step %d %s: %s path", i, d, warmRes.Path), warmRes.Placement, prob) {
			return res
		}
	}
	return res
}

// buildValid builds a spec problem and validates the result.
func buildValid(sp *spec.Problem) (*core.Problem, error) {
	prob, err := sp.Build()
	if err != nil {
		return nil, err
	}
	return prob, prob.Validate()
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
