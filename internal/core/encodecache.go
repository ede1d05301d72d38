package core

import (
	"sync"

	"rulefit/internal/deps"
	"rulefit/internal/lru"
	"rulefit/internal/policy"
)

// EncodeCache memoizes the pure per-policy stages of buildEncoding —
// redundancy removal and dependency-graph construction — plus the
// cross-policy mergeable-rule search, keyed by canonical policy
// content. It exists for the stateful delta path (internal/state): a
// single-rule delta leaves every other policy byte-identical, so its
// encode artifacts are served from cache instead of being recomputed.
//
// Correctness contract: a cache hit must be indistinguishable from a
// fresh computation. Keys are full canonical renderings (not hashes),
// so collisions are impossible; cached reduced policies are cloned on
// both store and serve so no caller can alias cache-owned memory;
// dependency graphs and merge groups are shared read-only (their
// consumers never mutate them — BreakCycles copies member slices).
// TestEncodeCacheByteIdentity asserts placements are byte-identical
// with and without a cache attached.
type EncodeCache struct {
	mu       sync.Mutex
	policies *lru.Cache[policyArtifacts]
	merges   *lru.Cache[[]deps.MergeGroup]

	policyHits, policyMisses int64
	mergeHits, mergeMisses   int64
}

// policyArtifacts is one cached per-policy encode result.
type policyArtifacts struct {
	reduced *policy.Policy
	graph   *deps.Graph
}

// Cache bounds, shared with SolutionCache. A decomposed solve looks up
// every policy's current fragment and a joint solve encodes every
// policy, so a least-recently-used table keeps the live versions, and
// versionsPerPolicy entries per policy keep the recent versions a
// revert can bring back. The merge key spans the whole instance, like
// the session's identity memo, so the merge table keeps the memo's
// depth; on merging-on session streams it serves every hit a 64-entry
// table does (DESIGN.md §15).
const (
	versionsPerPolicy = 8
	maxMergeEntries   = 4
)

// NewEncodeCache returns an empty cache sized for instances of the
// given policy count. One cache must only be shared by solves that
// tolerate each other's content: keying is by policy bytes and the
// RemoveRedundant flag, so differing objectives, routings, or
// capacities may share a cache safely (those inputs do not enter the
// cached stages).
func NewEncodeCache(policies int) *EncodeCache {
	return &EncodeCache{
		policies: lru.New[policyArtifacts](versionsPerPolicy * max(policies, 1)),
		merges:   lru.New[[]deps.MergeGroup](maxMergeEntries),
	}
}

// EncodeCacheStats is a point-in-time snapshot of the hit counters.
type EncodeCacheStats struct {
	PolicyHits   int64 `json:"policy_hits"`
	PolicyMisses int64 `json:"policy_misses"`
	MergeHits    int64 `json:"merge_hits"`
	MergeMisses  int64 `json:"merge_misses"`
}

// Stats snapshots the cumulative hit/miss counters.
func (c *EncodeCache) Stats() EncodeCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return EncodeCacheStats{
		PolicyHits:   c.policyHits,
		PolicyMisses: c.policyMisses,
		MergeHits:    c.mergeHits,
		MergeMisses:  c.mergeMisses,
	}
}

// Len counts the entries held in the per-policy and merge tables.
func (c *EncodeCache) Len() (policies, merges int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.policies.Len(), c.merges.Len()
}

// policyKey renders a policy to its canonical cache key: one byte for
// the RemoveRedundant flag, then the policy's key (Policy.AppendKey).
// Ingress is part of the key: the served artifact carries the ingress,
// so two otherwise identical policies on different ingresses must not
// share an entry. The key covers width, priorities, actions, matches
// and the default action, so it is a faithful fingerprint of
// everything RemoveRedundant and BuildGraph read.
func policyKey(pol *policy.Policy, removeRedundant bool) string {
	b := []byte{0}
	if removeRedundant {
		b[0] = 1
	}
	return string(pol.AppendKey(b))
}

// lookupPolicy serves the cached (reduced policy, dependency graph)
// pair for a policy, or reports a miss. The reduced policy is cloned:
// the encoding and the Placement that escapes from it own their copy.
func (c *EncodeCache) lookupPolicy(pol *policy.Policy, removeRedundant bool) (*policy.Policy, *deps.Graph, bool) {
	key := policyKey(pol, removeRedundant)
	c.mu.Lock()
	defer c.mu.Unlock()
	art, ok := c.policies.Get(key)
	if !ok {
		c.policyMisses++
		return nil, nil, false
	}
	c.policyHits++
	return art.reduced.Clone(), art.graph, true
}

// storePolicy records freshly computed artifacts for a policy. The
// reduced policy is cloned into the cache so the caller's copy (which
// escapes into the Placement) cannot alias cache-owned memory.
func (c *EncodeCache) storePolicy(pol *policy.Policy, removeRedundant bool, reduced *policy.Policy, g *deps.Graph) {
	key := policyKey(pol, removeRedundant)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.policies.Put(key, policyArtifacts{reduced: reduced.Clone(), graph: g})
}

// mergeKey renders the full (already reduced) policy list to the
// canonical key of its mergeable-group search: the policies' keys in
// order, each self-delimiting.
func mergeKey(policies []*policy.Policy) string {
	var b []byte
	for _, pol := range policies {
		b = pol.AppendKey(b)
	}
	return string(b)
}

// lookupMerge serves the cached FindMergeable result for a policy
// list. The groups are shared read-only: every consumer copies before
// mutating (buildMerging filters into fresh groups, BreakCycles
// copies member slices).
func (c *EncodeCache) lookupMerge(policies []*policy.Policy) ([]deps.MergeGroup, bool) {
	key := mergeKey(policies)
	c.mu.Lock()
	defer c.mu.Unlock()
	groups, ok := c.merges.Get(key)
	if !ok {
		c.mergeMisses++
		return nil, false
	}
	c.mergeHits++
	return groups, true
}

// storeMerge records a freshly computed FindMergeable result.
func (c *EncodeCache) storeMerge(policies []*policy.Policy, groups []deps.MergeGroup) {
	key := mergeKey(policies)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.merges.Put(key, groups)
}
