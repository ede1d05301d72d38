package core

import (
	"errors"
	"fmt"
	"math/bits"

	"rulefit/internal/ilp"
)

// This file provides the bottom of the differential-testing oracle
// hierarchy (see DESIGN.md §10): a brute-force placement solver that
// enumerates every 0/1 assignment of the encoding's variables. It shares
// the encoding with the ILP and SAT backends — so it validates the
// solvers, not the encoding; the encoding itself is validated end-to-end
// by the verify package's data-plane semantics checks.

// ErrExhaustiveTooLarge is returned by PlaceExhaustive when the instance
// has more variables than the enumeration budget allows.
var ErrExhaustiveTooLarge = errors.New("core: instance too large for exhaustive enumeration")

// DefaultExhaustiveVars is the default variable budget for
// PlaceExhaustive (2^20 assignments).
const DefaultExhaustiveVars = 20

// PlaceExhaustive solves the placement problem by enumerating all
// variable assignments of the encoding, for use as a differential-test
// oracle on tiny instances. It supports the linear objectives
// (ObjTotalRules, ObjTraffic, ObjWeightedSwitches); ObjMinMaxLoad is
// rejected. maxVars bounds the enumeration (<= 0 uses
// DefaultExhaustiveVars, capped at 30); instances with more variables
// return ErrExhaustiveTooLarge.
//
// The result is deterministic: among equal-objective optima the
// lexicographically smallest assignment (in encoding variable order,
// variable 0 least significant) wins.
func PlaceExhaustive(prob *Problem, opts Options, maxVars int) (*Placement, error) {
	opts = opts.withDefaults()
	if opts.Objective == ObjMinMaxLoad {
		return nil, fmt.Errorf("core: %v is not supported by the exhaustive oracle", opts.Objective)
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	enc, err := buildEncoding(prob, opts, nil)
	if err != nil {
		return nil, err
	}
	if enc.infeasibleReason != "" {
		return &Placement{
			Status:   StatusInfeasible,
			Policies: enc.policies,
			Groups:   enc.groups,
			Stats:    Stats{Stats: ilp.Stats{Gap: -1, RootGap: -1}, Backend: opts.Backend},
		}, nil
	}
	if maxVars <= 0 {
		maxVars = DefaultExhaustiveVars
	}
	if maxVars > 30 {
		maxVars = 30
	}
	n := len(enc.vars)
	if n > maxVars {
		return nil, fmt.Errorf("%w: %d variables > budget %d", ErrExhaustiveTooLarge, n, maxVars)
	}

	// Compile the constraint system into bitmask form so the inner loop
	// is branch-light: variable id i is bit i of the assignment word.
	type mergeMask struct {
		mvBit   uint64
		members uint64
	}
	type capMask struct {
		ruleMask uint64
		merged   []mergeTerm // savings applied when bit mv is set
		cap      int
	}
	coverMasks := make([]uint64, len(enc.covers))
	for i, cover := range enc.covers {
		for _, v := range cover {
			coverMasks[i] |= 1 << uint(v)
		}
	}
	mergeMasks := make([]mergeMask, len(enc.merges))
	for i, mc := range enc.merges {
		mergeMasks[i].mvBit = 1 << uint(mc.mv)
		for _, v := range mc.members {
			mergeMasks[i].members |= 1 << uint(v)
		}
	}
	capMasks := make([]capMask, len(enc.capRows))
	for i, row := range enc.capRows {
		cm := capMask{merged: row.merged, cap: row.cap}
		for _, v := range row.ruleVars {
			cm.ruleMask |= 1 << uint(v)
		}
		capMasks[i] = cm
	}
	weights := enc.objectiveWeights()

	feasible := func(m uint64) bool {
		for _, imp := range enc.imps {
			// v_w -> v_u (Eq. 1).
			if m>>uint(imp[0])&1 == 1 && m>>uint(imp[1])&1 == 0 {
				return false
			}
		}
		for _, cov := range coverMasks {
			// At least one candidate per relevant path (Eq. 2).
			if m&cov == 0 {
				return false
			}
		}
		for _, mm := range mergeMasks {
			// mv <-> AND(members) (Eqs. 4–5 / Eq. 8).
			and := m&mm.members == mm.members
			if (m&mm.mvBit != 0) != and {
				return false
			}
		}
		for _, cm := range capMasks {
			used := bits.OnesCount64(m & cm.ruleMask)
			for _, mt := range cm.merged {
				if m>>uint(mt.mv)&1 == 1 {
					used -= mt.savings
				}
			}
			if used > cm.cap {
				return false
			}
		}
		return true
	}

	var bestMask uint64
	var bestObj int64
	found := false
	for m := uint64(0); m < 1<<uint(n); m++ {
		if !feasible(m) {
			continue
		}
		var obj int64
		for rest := m; rest != 0; rest &= rest - 1 {
			obj += weights[bits.TrailingZeros64(rest)]
		}
		if !found || obj < bestObj {
			found, bestMask, bestObj = true, m, obj
		}
	}

	pl := &Placement{Policies: enc.policies, Groups: enc.groups}
	pl.Stats.Backend = opts.Backend
	pl.Stats.Variables = len(enc.vars)
	pl.Stats.Constraints = enc.numConstraints()
	if !found {
		pl.Status = StatusInfeasible
		pl.Stats.Gap = -1
		pl.Stats.RootGap = -1
		return pl, nil
	}
	pl.Status = StatusOptimal
	extract(enc, pl, func(id int) bool { return bestMask>>uint(id)&1 == 1 })
	pl.Objective = float64(bestObj)
	return pl, nil
}

// BuildModel exposes the deterministic problem-to-MILP translation so
// tooling (cmd/diffcheck, the ilp.Stats accounting tests) can drive
// ilp.Solve directly with node/time limits that core.Options does not
// carry. It returns an error when the encoding itself proves the
// instance infeasible.
func BuildModel(prob *Problem, opts Options) (*ilp.Model, error) {
	opts = opts.withDefaults()
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	enc, err := buildEncoding(prob, opts, nil)
	if err != nil {
		return nil, err
	}
	if enc.infeasibleReason != "" {
		return nil, fmt.Errorf("core: encoding infeasible: %s", enc.infeasibleReason)
	}
	m, _, _ := buildILPModel(enc, opts)
	return m, nil
}
