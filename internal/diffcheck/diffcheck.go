// Package diffcheck is the differential-testing harness that
// cross-checks the repo's three independent decision procedures for the
// placement problem — the MILP branch & bound (internal/ilp), the
// CDCL/PB search (internal/sat), and exhaustive enumeration
// (core.PlaceExhaustive) — on randomly generated instances
// (internal/randgen), and asserts the paper's invariants (Eqs. 1–3)
// end-to-end through data-plane verification (internal/verify).
//
// The oracle hierarchy (DESIGN.md §10): exhaustive enumeration is
// trusted most but only answers tiny instances; the SAT backend scales
// further and shares nothing with the ILP solver except the encoding;
// the verify package closes the loop by checking placements against the
// original policies on the simulated data plane, independent of the
// encoding entirely. A battery of metamorphic properties (metamorphic.go)
// covers what no single oracle can: how the optimum must respond to
// instance transformations.
package diffcheck

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/randgen"
	"rulefit/internal/verify"
)

// Failure kinds reported by Check.
const (
	KindSolveError   = "solve-error" // a backend returned an error
	KindUnproven     = "unproven"    // non-terminal status with no limits set
	KindStatus       = "status-mismatch"
	KindObjective    = "objective-mismatch"
	KindObjTotal     = "objective-vs-totalrules"
	KindStatsSum     = "stats-sum"
	KindTables       = "tables"
	KindSemantics    = "semantics"
	KindSemanticsExh = "semantics-exhaustive"
	KindCapacity     = "capacity"
	KindMetaCapRaise = "meta-capacity-raise"
	KindMetaPermute  = "meta-permutation"
	KindMetaShadow   = "meta-shadowed-rule"
	KindMetaMerge    = "meta-merging"
)

// Failure is one invariant violation found on an instance.
type Failure struct {
	Kind   string
	Detail string
}

// String renders the failure.
func (f Failure) String() string { return f.Kind + ": " + f.Detail }

// Failures is the list of invariant violations an oracle found: the
// one failure list of Result and DeltaResult.
type Failures []Failure

// Failed reports whether any invariant was violated.
func (fs Failures) Failed() bool { return len(fs) > 0 }

// addf records a failure.
func (fs *Failures) addf(kind, format string, args ...any) {
	*fs = append(*fs, Failure{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// Summary renders the failures for logs.
func (fs Failures) Summary() string {
	if !fs.Failed() {
		return "ok"
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return strings.Join(parts, "; ")
}

// Options configures a differential check.
type Options struct {
	// Core carries the placement options shared by all backends
	// (Backend is overridden per oracle). ObjMinMaxLoad is
	// not supported (no SAT/exhaustive counterpart).
	Core core.Options
	// SATTimeLimit caps the SAT oracle separately (0 = inherit
	// Core.TimeLimit). The SAT backend's optimality proof is a counting
	// argument — exponential for clause learning without cardinality
	// reasoning — so rare instances that the ILP bound closes instantly
	// can stall it. A SAT result that is unproven within an explicit
	// budget is recorded as SATUnproven, not a failure.
	SATTimeLimit time.Duration
	// Verify configures the sampling data-plane verifier.
	Verify verify.Config
	// Metamorphic enables the property battery (roughly four extra ILP
	// solves per instance).
	Metamorphic bool
}

const (
	// maxExhaustiveVars bounds the exhaustive oracle's enumeration.
	maxExhaustiveVars = 16
	// exhaustiveHeaderWidth is the maximum policy width (bits) for
	// which the data-plane verifier runs exhaustively over the header
	// space.
	exhaustiveHeaderWidth = 12
)

// Result is the outcome of checking one instance.
type Result struct {
	Config randgen.Config
	// ILP, SAT, and Exhaustive are the placements from each oracle
	// (Exhaustive is nil when the instance exceeded the budget).
	ILP, SAT, Exhaustive *core.Placement
	// ExhaustiveSkipped records a budget skip (not a failure).
	ExhaustiveSkipped bool
	// SATUnproven records that the SAT oracle hit its explicit time
	// budget without proving optimality (not a failure; see
	// Options.SATTimeLimit).
	SATUnproven bool
	Failures
}

// proven reports whether a placement's status is a terminal answer
// (proven optimal or proven infeasible).
func proven(pl *core.Placement) bool {
	return pl != nil && (pl.Status == core.StatusOptimal || pl.Status == core.StatusInfeasible)
}

// Check runs every oracle on the instance and cross-validates the
// results. It never returns an error: everything unexpected lands in
// Result.Failures so soak loops can keep going.
func Check(inst *randgen.Instance, opts Options) *Result {
	res := &Result{Config: inst.Config}
	prob := inst.Problem

	ilpOpts := opts.Core
	ilpOpts.Backend = core.BackendILP
	ilpPl, err := core.Place(prob, ilpOpts)
	if err != nil {
		res.addf(KindSolveError, "ilp: %v", err)
		return res
	}
	res.ILP = ilpPl

	satOpts := opts.Core
	satOpts.Backend = core.BackendSAT
	if opts.SATTimeLimit > 0 {
		satOpts.TimeLimit = opts.SATTimeLimit
	}
	satPl, err := core.Place(prob, satOpts)
	if err != nil {
		res.addf(KindSolveError, "sat: %v", err)
	} else if satOpts.TimeLimit > 0 && !proven(satPl) {
		res.SATUnproven = true
	} else {
		res.SAT = satPl
	}

	exhPl, err := core.PlaceExhaustive(prob, opts.Core, maxExhaustiveVars)
	switch {
	case errors.Is(err, core.ErrExhaustiveTooLarge):
		res.ExhaustiveSkipped = true
	case err != nil:
		res.addf(KindSolveError, "exhaustive: %v", err)
	default:
		res.Exhaustive = exhPl
	}

	oracles := []struct {
		name string
		pl   *core.Placement
	}{{"ilp", res.ILP}, {"sat", res.SAT}, {"exhaustive", res.Exhaustive}}

	// With no time limit every oracle must prove its answer; anything
	// else is a solver bug (numerics, lost subtrees), not a timeout.
	// (The SAT oracle is exempt when it ran under an explicit budget —
	// that case was already diverted to SATUnproven above.)
	if opts.Core.TimeLimit == 0 {
		for _, o := range oracles {
			if o.pl != nil && !proven(o.pl) {
				res.addf(KindUnproven, "%s returned %v with no limits (stop=%v)",
					o.name, o.pl.Status, o.pl.Stats.StopReason)
			}
		}
	}

	// Pairwise agreement on status and optimal objective.
	for i := 0; i < len(oracles); i++ {
		for j := i + 1; j < len(oracles); j++ {
			a, b := oracles[i], oracles[j]
			if !proven(a.pl) || !proven(b.pl) {
				continue
			}
			if a.pl.Status != b.pl.Status {
				res.addf(KindStatus, "%s=%v but %s=%v", a.name, a.pl.Status, b.name, b.pl.Status)
				continue
			}
			if a.pl.Status == core.StatusOptimal &&
				math.Abs(a.pl.Objective-b.pl.Objective) > 0.5 {
				res.addf(KindObjective, "%s=%g but %s=%g", a.name, a.pl.Objective, b.name, b.pl.Objective)
			}
		}
	}

	for _, o := range oracles {
		res.checkPlacement(o.name, o.pl, inst, opts)
	}

	if opts.Metamorphic && proven(res.ILP) {
		checkMetamorphic(inst, ilpOpts, res)
	}
	return res
}

// checkPlacement validates one oracle's placement in isolation:
// objective/slot-count consistency, solver-stats accounting, and
// data-plane semantics plus capacity audits.
func (res *Result) checkPlacement(name string, pl *core.Placement, inst *randgen.Instance, opts Options) {
	if pl == nil || (pl.Status != core.StatusOptimal && pl.Status != core.StatusFeasible) {
		return
	}
	obj := opts.Core.Objective
	if obj == 0 {
		obj = core.ObjTotalRules
	}
	if obj == core.ObjTotalRules && int(math.Round(pl.Objective)) != pl.TotalRules {
		res.addf(KindObjTotal, "%s: objective %g != total rules %d", name, pl.Objective, pl.TotalRules)
	}
	if name == "ilp" {
		sum := pl.Stats.Branched + pl.Stats.PrunedBound + pl.Stats.PrunedInfeasible +
			pl.Stats.IntegralLeaves + pl.Stats.LostSubtrees
		if sum != pl.Stats.BnBNodes {
			res.addf(KindStatsSum, "outcome counters sum to %d, nodes %d", sum, pl.Stats.BnBNodes)
		}
	}
	prob := inst.Problem
	net, err := pl.BuildTables(prob)
	if err != nil {
		res.addf(KindTables, "%s: %v", name, err)
		return
	}
	if v := verify.Semantics(net, prob.Routing, prob.Policies, opts.Verify); len(v) > 0 {
		res.addf(KindSemantics, "%s: %d violations, first: %v", name, len(v), v[0])
	}
	if v := verify.Capacities(net, prob.Network); len(v) > 0 {
		res.addf(KindCapacity, "%s: %d violations, first: %v", name, len(v), v[0])
	}
	w := inst.Config.Width
	if w > 0 && w <= exhaustiveHeaderWidth {
		if v := verify.Exhaustive(net, prob.Routing, prob.Policies); len(v) > 0 {
			res.addf(KindSemanticsExh, "%s: %d violations, first: %v", name, len(v), v[0])
		}
	}
}
