// Package state is the daemon's stateful session layer (§IV-E brought
// online): a Manager holds live placement sessions, each owning an
// authoritative fully-explicit spec.Problem, a version counter, and
// the warm-solve caches that make small deltas cheap.
//
// Byte-identity contract: every delta answer equals a cold core.Place
// of the fully-updated instance, byte for byte. The solver is
// deterministic, so the only safe accelerations are memoizations of
// bit-identical computations — the fallback ladder is
//
//	L0 "identity": the post-delta instance renders the binary key
//	    (spec.Version.Key) of one of the session's last few proven
//	    answers (none a deadline cut short) → return the memoized
//	    placement;
//	L1 "warm": a deterministic solve runs, but parts of it are served
//	    from the session's caches — per-policy encode artifacts
//	    (redundancy removal, dependency graphs, merge search) from the
//	    EncodeCache, and, on core.Place's decomposed path (merging
//	    off, total-rules objective), whole certified per-policy
//	    placement fragments from the SolutionCache, so a single-rule
//	    delta re-certifies only the one subproblem it changed (and a
//	    policy that fails the certificate sends the answer to the
//	    joint MILP);
//	L2 "cold": nothing hits; everything is recomputed (and cached).
//
// Below the ladder, an edit re-renders the key and re-parses only the
// policies it changed: the session keeps its instance as a
// spec.Version, and the next version takes every unchanged policy's
// key part and built *policy.Policy from it.
//
// Solver-level warm starts (incumbent injection, basis reuse across
// solves) are deliberately absent: with multiple optima they can
// return a different equally-optimal placement, which the diffcheck
// delta oracle would (correctly) flag as drift. The fragment cache is
// different in kind: the decomposition is part of core.Place's
// deterministic contract, so a cold solve of the updated instance
// performs the identical per-policy certifications and stitches the
// identical bytes — the cache only skips re-deriving them.
package state

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"reflect"
	"sync"

	"rulefit/internal/core"
	"rulefit/internal/invariant"
	"rulefit/internal/lru"
	"rulefit/internal/obs"
	"rulefit/internal/spec"
)

// Solve paths, from cheapest to most expensive (the fallback ladder).
const (
	PathIdentity = "identity"
	PathWarm     = "warm"
	PathCold     = "cold"
)

// Errors the daemon maps to HTTP statuses.
var (
	// ErrBadDelta marks a delta rejected by validation or one that
	// produced an unsolvable instance (→ 400). The session is
	// unchanged.
	ErrBadDelta = errors.New("state: bad delta")
	// ErrNoSession marks an unknown or evicted session ID (→ 404).
	ErrNoSession = errors.New("state: no such session")
)

// memoEntries caps each session's L0 identity memo. A revert restores
// a recent instance (perfbench's go back two edits), and each entry's
// key renders the whole instance (spec.Version.Key), so the memo keeps
// only the last few proven answers.
const memoEntries = 4

// Config bounds the Manager.
type Config struct {
	// MaxSessions caps live sessions; creating one past the cap
	// evicts the least-recently-used session (logged). Zero or less
	// means 64.
	MaxSessions int
	// Logger receives eviction and lifecycle lines (default: discard).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Manager owns the live sessions.
type Manager struct {
	log *slog.Logger

	mu       sync.Mutex
	sessions *lru.Cache[*Session] // by ID; Get refreshes, Create evicts
	seq      uint64
}

// NewManager returns an empty session manager.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	return &Manager{
		log:      cfg.Logger,
		sessions: lru.New[*Session](cfg.MaxSessions),
	}
}

// Result is one delta (or create) answer.
type Result struct {
	// Version is the session version after this operation (1 after
	// create, monotonically increasing by one per applied delta).
	Version uint64
	// Path is the fallback-ladder level that answered: PathIdentity,
	// PathWarm, or PathCold.
	Path string
	// Placement is byte-identical to a cold core.Place of the
	// session's current instance. Read-only: shared with the session.
	Placement *core.Placement
	// CacheStats are the encode-cache counters consumed by this solve
	// alone (all zero on the identity path).
	CacheStats core.EncodeCacheStats
	// SolStats are the per-policy fragment-cache counters consumed by
	// this solve alone (all zero on the identity path and outside the
	// decomposed regime).
	SolStats core.SolutionCacheStats
}

// Session is one live placement instance. All methods are safe for
// concurrent use; deltas serialize on the session's lock.
type Session struct {
	id string

	mu      sync.Mutex
	version uint64
	inst    *spec.Version // authoritative, fully explicit; its key and built policies
	opts    core.Options  // fixed at create (observational fields set per call)
	cache   *core.EncodeCache
	sols    *core.SolutionCache
	memo    *lru.Cache[*core.Placement] // L0: instance key → proven placement
	current *core.Placement
}

// sessionID derives the deterministic ID for the seq-th session from
// the instance's canonical bytes (same shape as obs trace IDs).
func sessionID(seq uint64, canonical []byte) string {
	h := fnv.New64a()
	h.Write(canonical)
	return fmt.Sprintf("s-%06d-%016x", seq, h.Sum64())
}

// Create registers a session for an explicit-form instance and runs
// the initial (cold) solve. opts' observational fields (Trace,
// SolverSink) apply to this first solve only; the remaining fields are
// fixed for the session's lifetime.
func (m *Manager) Create(sp *spec.Problem, opts core.Options) (*Session, *Result, error) {
	if err := sp.ExplicitOnly(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	own := sp.Clone()
	fixed := opts
	fixed.Trace, fixed.SolverSink = nil, nil
	fixed.EncodeCache = nil   // the session attaches its own
	fixed.SolutionCache = nil // likewise
	// No delta adds or removes a policy, so the count sizing the caches
	// holds for the session's life.
	s := &Session{
		opts:  fixed,
		cache: core.NewEncodeCache(len(own.Policies)),
		sols:  core.NewSolutionCache(len(own.Policies)),
		memo:  lru.New[*core.Placement](memoEntries),
	}

	m.mu.Lock()
	m.seq++
	s.id = sessionID(m.seq, own.Canonical())
	m.mu.Unlock()

	s.mu.Lock()
	res, err := s.solveLocked(spec.NewVersion(own, nil), opts.Trace, opts.SolverSink)
	if err != nil {
		s.mu.Unlock()
		return nil, nil, err
	}
	s.version = 1
	res.Version = 1
	s.mu.Unlock()

	m.mu.Lock()
	victim, evicted := m.sessions.Put(s.id, s)
	live := m.sessions.Len()
	m.mu.Unlock()
	if evicted {
		m.log.Info("session evicted", "session", victim, "reason", "max_sessions", "live", live-1)
	}
	m.log.Info("session created", "session", s.id, "live", live)
	return s, res, nil
}

// Get returns a live session, refreshing its LRU position.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSession, id)
	}
	return s, nil
}

// Delete removes a session; it reports whether the ID was live.
func (m *Manager) Delete(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.sessions.Remove(id) {
		return false
	}
	m.log.Info("session deleted", "session", id, "live", m.sessions.Len())
	return true
}

// Len counts live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessions.Len()
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Version returns the current session version.
func (s *Session) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Snapshot returns the current version and placement.
func (s *Session) Snapshot() (uint64, *core.Placement) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version, s.current
}

// Spec returns a copy of the authoritative instance.
func (s *Session) Spec() *spec.Problem {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inst.Spec().Clone()
}

// CacheStats snapshots the session's cumulative encode-cache counters.
func (s *Session) CacheStats() core.EncodeCacheStats {
	return s.cache.Stats()
}

// SolutionStats snapshots the session's cumulative fragment-cache
// counters.
func (s *Session) SolutionStats() core.SolutionCacheStats {
	return s.sols.Stats()
}

// Delta applies a delta sequence atomically: every op validates and
// the updated instance solves, or the session is left untouched and
// the error wraps ErrBadDelta. req's span trace and sink scope
// observability to this call only. Concurrent calls serialize on the
// session lock.
func (s *Session) Delta(deltas []spec.Delta, req *obs.RequestCtx, sink obs.Sink) (*Result, error) {
	if len(deltas) == 0 {
		return nil, fmt.Errorf("%w: empty delta list", ErrBadDelta)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Deltas edit copy-on-write, so the next instance shares every
	// slice the batch leaves alone with the current one.
	next := *s.inst.Spec()
	if err := next.ApplyAll(deltas); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	if invariant.Enabled {
		invariant.Assert(spec.NewVersion(s.inst.Spec(), nil).Key() == s.inst.Key(),
			"state: a delta wrote into the current version's instance")
	}
	var trace *obs.Trace
	if req != nil {
		trace = req.Trace
	}
	res, err := s.solveLocked(spec.NewVersion(&next, s.inst), trace, sink)
	if err != nil {
		return nil, err
	}
	s.version++
	res.Version = s.version
	return res, nil
}

// proven reports whether a solve proved what it was asked, so its
// answer is a pure function of the instance that L0 may replay: an
// optimum, infeasibility, or under SatisfyOnly the SAT backend's first
// model (the SAT solver has no randomness and reports a deadline as
// limit). Any other feasible or limit answer may be what a deadline
// cut short, at a different point each time.
func (s *Session) proven(pl *core.Placement) bool {
	switch pl.Status {
	case core.StatusOptimal, core.StatusInfeasible:
		return true
	case core.StatusFeasible:
		return s.opts.SatisfyOnly && s.opts.Backend == core.BackendSAT
	}
	return false
}

// solveLocked answers for an instance via the fallback ladder and
// commits it and the placement as current. Callers hold s.mu.
func (s *Session) solveLocked(inst *spec.Version, trace *obs.Trace, sink obs.Sink) (*Result, error) {
	if pl, ok := s.memo.Get(inst.Key()); ok {
		//lint:sharedmut caller holds s.mu (see doc)
		s.inst, s.current = inst, pl
		return &Result{Path: PathIdentity, Placement: pl}, nil
	}
	prob, err := inst.Build()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	if invariant.Enabled {
		fresh, err := inst.Spec().Build()
		invariant.Assert(err == nil && reflect.DeepEqual(prob, fresh),
			"state: a build reusing unchanged policies differs from a fresh build (fresh build error: %v)", err)
	}
	if err := prob.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	opts := s.opts
	opts.EncodeCache = s.cache
	opts.SolutionCache = s.sols
	opts.Trace = trace
	opts.SolverSink = sink
	before := s.cache.Stats()
	solBefore := s.sols.Stats()
	pl, err := core.Place(prob, opts)
	if err != nil {
		return nil, err
	}
	after := s.cache.Stats()
	solAfter := s.sols.Stats()
	used := core.EncodeCacheStats{
		PolicyHits:   after.PolicyHits - before.PolicyHits,
		PolicyMisses: after.PolicyMisses - before.PolicyMisses,
		MergeHits:    after.MergeHits - before.MergeHits,
		MergeMisses:  after.MergeMisses - before.MergeMisses,
	}
	solUsed := core.SolutionCacheStats{
		Hits:   solAfter.Hits - solBefore.Hits,
		Misses: solAfter.Misses - solBefore.Misses,
	}
	path := PathCold
	if used.PolicyHits > 0 || used.MergeHits > 0 || solUsed.Hits > 0 {
		path = PathWarm
	}
	if s.proven(pl) {
		s.memo.Put(inst.Key(), pl)
	}
	//lint:sharedmut caller holds s.mu (see doc)
	s.inst, s.current = inst, pl
	return &Result{Path: path, Placement: pl, CacheStats: used, SolStats: solUsed}, nil
}
