// Package ilp is a self-contained mixed-integer linear programming solver
// standing in for the commercial ILP solver (CPLEX) used by the paper's
// evaluation. It implements a bounded-variable revised simplex method
// with sparse LU factorization and product-form basis updates for the LP
// relaxation, plus presolve and branch & bound for integrality.
//
// The solver is exact in the paper's sense: it proves optimality or
// infeasibility rather than approximating, which is the property the
// paper's "no false negatives" claim rests on.
//
// A product that feeds an add or a subtract is written float64(a*b). The
// conversion is a rounding point the Go spec forbids the compiler to fuse
// into a multiply-add, so every GOARCH rounds the same operations and
// returns the same bits. The lint stage of scripts/check.sh fails on any
// fused instruction compiled for this package.
package ilp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a linear constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota + 1 // <=
	GE               // >=
	EQ               // ==
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Inf is the bound value representing infinity.
var Inf = math.Inf(1)

// Term is one coefficient of a linear constraint.
type Term struct {
	Var  int
	Coef float64
}

// Constraint is a sparse linear row: sum(terms) Op RHS.
type Constraint struct {
	Terms []Term
	Op    Op
	RHS   float64
	Name  string
}

type variable struct {
	name    string
	lo, hi  float64
	integer bool
	obj     float64
}

// Model is a minimization MILP under construction.
type Model struct {
	vars []variable
	cons []Constraint
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// AddVar adds a continuous variable with the given bounds and objective
// coefficient, returning its index.
func (m *Model) AddVar(name string, lo, hi, obj float64) int {
	m.vars = append(m.vars, variable{name: name, lo: lo, hi: hi, obj: obj})
	return len(m.vars) - 1
}

// AddBinary adds a {0,1} integer variable, returning its index.
func (m *Model) AddBinary(name string, obj float64) int {
	m.vars = append(m.vars, variable{name: name, lo: 0, hi: 1, integer: true, obj: obj})
	return len(m.vars) - 1
}

// AddInteger adds a bounded integer variable, returning its index.
func (m *Model) AddInteger(name string, lo, hi, obj float64) int {
	m.vars = append(m.vars, variable{name: name, lo: lo, hi: hi, integer: true, obj: obj})
	return len(m.vars) - 1
}

// AddConstraint appends a linear constraint. Terms with duplicate
// variables are combined.
func (m *Model) AddConstraint(terms []Term, op Op, rhs float64, name string) {
	m.cons = append(m.cons, Constraint{Terms: combineTerms(terms), Op: op, RHS: rhs, Name: name})
}

// combineTerms merges duplicate variables and drops zero coefficients.
func combineTerms(terms []Term) []Term {
	seen := make(map[int]int, len(terms))
	out := make([]Term, 0, len(terms))
	for _, t := range terms {
		if idx, ok := seen[t.Var]; ok {
			out[idx].Coef += t.Coef
			continue
		}
		seen[t.Var] = len(out)
		out = append(out, t)
	}
	w := 0
	for _, t := range out {
		//lint:exactfloat only exactly-cancelled coefficients may be dropped; a tiny residual coefficient is still part of the model
		if t.Coef != 0 {
			out[w] = t
			w++
		}
	}
	return out[:w]
}

// NumVars returns the variable count.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstraints returns the constraint count.
func (m *Model) NumConstraints() int { return len(m.cons) }

// Validation errors.
var (
	ErrBadBounds = errors.New("ilp: variable lower bound exceeds upper bound")
	ErrBadVar    = errors.New("ilp: constraint references unknown variable")
)

// Validate checks structural sanity of the model.
func (m *Model) Validate() error {
	for i, v := range m.vars {
		if v.lo > v.hi {
			return fmt.Errorf("%w: var %d (%s) [%g, %g]", ErrBadBounds, i, v.name, v.lo, v.hi)
		}
	}
	for ci, c := range m.cons {
		for _, t := range c.Terms {
			if t.Var < 0 || t.Var >= len(m.vars) {
				return fmt.Errorf("%w: constraint %d (%s) var %d", ErrBadVar, ci, c.Name, t.Var)
			}
		}
		if c.Op != LE && c.Op != GE && c.Op != EQ {
			return fmt.Errorf("ilp: constraint %d (%s) has invalid op %v", ci, c.Name, c.Op)
		}
	}
	return nil
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	// Optimal means a provably optimal integer solution was found.
	Optimal Status = iota + 1
	// Infeasible means no assignment satisfies the constraints.
	Infeasible
	// Feasible means a solution was found but optimality was not proven
	// within the limits.
	Feasible
	// LimitReached means the time or node limit expired with no solution.
	LimitReached
	// Unbounded means the objective can decrease without bound.
	Unbounded
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Feasible:
		return "feasible"
	case LimitReached:
		return "limit"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of solving a model.
type Solution struct {
	Status    Status
	Objective float64
	// Values holds one value per model variable (integral for integer
	// variables when Status is Optimal or Feasible).
	Values []float64
	Stats  Stats
}

// StopReason says why a solve stopped before proving its answer.
// StopNone means the search ran to completion (Optimal or Infeasible
// was proven, modulo lost subtrees).
type StopReason int

// Stop reasons, in precedence order when several apply.
const (
	// StopNone: the search exhausted the tree.
	StopNone StopReason = iota
	// StopDeadline: the wall-clock TimeLimit expired.
	StopDeadline
	// StopNodeLimit: the NodeLimit was reached.
	StopNodeLimit
	// StopLostSubtree: a node LP failed (numerics) and its subtree was
	// abandoned, so the exhausted tree no longer proves anything.
	StopLostSubtree
)

// String renders the stop reason.
func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopDeadline:
		return "deadline"
	case StopNodeLimit:
		return "node-limit"
	case StopLostSubtree:
		return "lost-subtree"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// MarshalText renders the stop reason by its String name, so JSON
// reports carry "deadline" rather than a bare integer.
func (r StopReason) MarshalText() ([]byte, error) {
	return []byte(r.String()), nil
}

// UnmarshalText accepts exactly the names String produces.
func (r *StopReason) UnmarshalText(text []byte) error {
	for s := StopNone; s <= StopLostSubtree; s++ {
		if string(text) == s.String() {
			*r = s
			return nil
		}
	}
	return fmt.Errorf("ilp: unknown stop reason %q", text)
}

// Stats collects solver effort counters. It is their only declaration:
// core.Stats, bench.Result and bench.RunRecord embed it, and its JSON
// tags, in order, are the BENCH_*.json run record's keys. SimplexIters
// and BnBNodes are summed across branch & bound workers; Workers
// records the pool size the search ran, min(GOMAXPROCS, 16), and is the
// only field that depends on it.
//
// Every expanded node gets exactly one outcome, so
// Branched + PrunedBound + PrunedInfeasible + IntegralLeaves +
// LostSubtrees == BnBNodes. PrunedStale counts deque items discarded
// before expansion (bound dominated by a later incumbent); they are not
// nodes and not in that sum.
type Stats struct {
	BnBNodes     int `json:"nodes"`
	SimplexIters int `json:"simplex_iters"`
	Workers      int `json:"workers"`
	// LURefactors counts basis LU refactorizations across all node LPs.
	LURefactors int `json:"lu_refactors"`

	// Per-outcome node counters (see invariant above).
	Branched         int `json:"branched"`
	PrunedBound      int `json:"pruned_bound"`
	PrunedInfeasible int `json:"pruned_infeasible"`
	IntegralLeaves   int `json:"integral_leaves"`
	LostSubtrees     int `json:"lost_subtrees"`
	// PrunedStale counts items skipped at pop time, before becoming nodes.
	PrunedStale int `json:"pruned_stale"`
	// Incumbents counts incumbent improvements (first solution included).
	Incumbents int `json:"incumbents"`

	// StrongBranchEvals counts reliability-initialization dual-simplex
	// trials; WarmStartReuses counts node LPs solved from the parent's
	// factored basis instead of the cold repair path.
	StrongBranchEvals int `json:"strong_branch_evals"`
	WarmStartReuses   int `json:"warm_start_reuses"`

	// StopReason says why the search ended early (StopNone when the tree
	// was exhausted cleanly).
	StopReason StopReason `json:"stop_reason"`
	// BestBound is a valid lower bound on the optimal objective at the
	// end of the solve. Meaningful only when Gap >= 0.
	BestBound float64 `json:"best_bound"`
	// Gap is the relative optimality gap
	// (Objective - BestBound) / max(|Objective|, 1e-9): 0 when
	// optimality was proven, positive for anytime solutions, and -1 when
	// undefined (no incumbent, infeasible, or unbounded) — a sentinel
	// rather than NaN/Inf so Stats stays JSON-encodable.
	Gap float64 `json:"gap"`
	// LastIncumbentAtNode is the node id that produced the final
	// incumbent (0 when no incumbent landed). A low value against a high
	// BnBNodes total means the search found the eventual answer early and
	// spent the rest of the tree proving it — the signal pseudocost
	// branching is meant to improve.
	LastIncumbentAtNode int `json:"last_incumbent_at_node"`
	// RootGap is the relative gap the tree search had to close: the
	// final objective against the root relaxation bound,
	// (Objective - root) / max(|Objective|, 1e-9), >= 0. -1 when
	// undefined (no incumbent, or the root LP never completed).
	RootGap float64 `json:"root_gap"`

	// PresolveFix counts the variable bounds presolve tightened. The
	// BENCH run record predates it and does not carry it.
	PresolveFix int `json:"-"`
}
