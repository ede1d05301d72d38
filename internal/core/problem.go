// Package core implements the paper's contribution: optimized placement
// of distributed-firewall (ACL) rules onto capacity-limited SDN switches
// for a given routing, via the rule dependency graph (§IV-A1) and either
// an ILP encoding (Eqs. 1–5) solved by the internal MILP solver or a
// satisfiability encoding (Eqs. 6–8) solved by the internal CDCL/PB
// solver. Extensions covered: rule merging across policies with
// circular-dependency breaking (§IV-B), path-sliced policy rules (§IV-C),
// alternative objectives (§IV-A4), ingress tagging and per-switch table
// compilation (§IV-A5), and incremental deployment (§IV-E).
package core

import (
	"errors"
	"fmt"
	"time"

	"rulefit/internal/deps"
	"rulefit/internal/ilp"
	"rulefit/internal/match"
	"rulefit/internal/obs"
	"rulefit/internal/policy"
	"rulefit/internal/routing"
	"rulefit/internal/topology"
)

// Backend selects the solver used for the placement problem.
type Backend int

// Available backends.
const (
	// BackendILP uses the integer linear programming formulation
	// (optimizing an objective; the paper's primary mode).
	BackendILP Backend = iota + 1
	// BackendSAT uses the satisfiability/pseudo-Boolean formulation
	// (§IV-D); with an objective it runs linear-search PB optimization.
	BackendSAT
)

// String renders the backend name.
func (b Backend) String() string {
	switch b {
	case BackendILP:
		return "ilp"
	case BackendSAT:
		return "sat"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend maps a wire or flag backend name to its Backend: "ilp"
// (or empty, the default) or "sat".
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "", "ilp":
		return BackendILP, nil
	case "sat":
		return BackendSAT, nil
	}
	return 0, fmt.Errorf("unknown backend %q", name)
}

// Objective selects what the placement minimizes (§IV-A4).
type Objective int

// Available objectives.
const (
	// ObjTotalRules minimizes the total number of TCAM slots used,
	// maximizing slack for future rules (the paper's evaluation metric).
	ObjTotalRules Objective = iota + 1
	// ObjTraffic weights each placement by its hop distance from the
	// ingress, pushing DROP rules upstream to kill traffic early.
	ObjTraffic
	// ObjWeightedSwitches charges each rule the per-switch cost from
	// Options.SwitchCost (default cost 1), the paper's "weighted
	// placement to favor certain switches".
	ObjWeightedSwitches
	// ObjMinMaxLoad minimizes the maximum TCAM utilization fraction
	// across switches (the paper's "slack in table capacity"
	// criterion), with total rules as a lexicographic tiebreak.
	// ILP backend only.
	ObjMinMaxLoad
)

// String renders the objective name.
func (o Objective) String() string {
	switch o {
	case ObjTotalRules:
		return "total-rules"
	case ObjTraffic:
		return "traffic"
	case ObjWeightedSwitches:
		return "weighted-switches"
	case ObjMinMaxLoad:
		return "min-max-load"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ParseObjective maps a wire or flag objective name to its Objective:
// "rules" (or empty, the default), "traffic", "weighted" or
// "minmaxload".
func ParseObjective(name string) (Objective, error) {
	switch name {
	case "", "rules":
		return ObjTotalRules, nil
	case "traffic":
		return ObjTraffic, nil
	case "weighted":
		return ObjWeightedSwitches, nil
	case "minmaxload":
		return ObjMinMaxLoad, nil
	}
	return 0, fmt.Errorf("unknown objective %q", name)
}

// Options configures a placement run.
type Options struct {
	// Backend defaults to BackendILP.
	Backend Backend
	// Objective defaults to ObjTotalRules.
	Objective Objective
	// SatisfyOnly skips objective optimization and returns the first
	// placement meeting all constraints (the paper's satisfiability
	// mode for fast re-deployment).
	SatisfyOnly bool
	// Merging enables cross-policy rule merging (§IV-B).
	Merging bool
	// PathSlicing restricts each rule to the paths whose traffic slice
	// overlaps it (§IV-C). Paths without traffic slices always count.
	PathSlicing bool
	// RemoveRedundant runs policy redundancy elimination first (the
	// optional stage in Fig. 4).
	RemoveRedundant bool
	// SwitchCost weighs rule placements per switch for
	// ObjWeightedSwitches; switches absent from the map cost 1.
	SwitchCost map[topology.SwitchID]int64
	// Monitors forbids DROP rules that overlap a monitor's match from
	// being placed upstream of the monitoring switch on any path that
	// reaches it, so monitored packets are observed before being
	// dropped (the paper's §VII future-work constraint).
	Monitors []Monitor
	// TimeLimit bounds the one solve a placement runs, give or take
	// that solve's deadline overshoot (0 = no limit).
	TimeLimit time.Duration
	// DisablePresolve turns off ILP presolve (ablation).
	DisablePresolve bool
	// Trace, when non-nil, collects hierarchical phase spans (encode →
	// model build → solve → extract) for the run. Timing only; the
	// placement is identical with or without it.
	Trace *obs.Trace
	// SolverSink receives structured solver events from the ILP backend
	// (nil disables tracing). The placement is byte-identical with the
	// sink attached or not.
	SolverSink obs.Sink
	// EncodeCache, when non-nil, memoizes the pure per-policy encode
	// stages (redundancy removal, dependency graphs) and the
	// cross-policy merge search across solves, keyed by policy content.
	// The stateful session layer (internal/state) attaches one per
	// session so single-policy deltas skip re-analyzing the unchanged
	// policies. The placement is byte-identical with or without it
	// (TestEncodeCacheByteIdentity).
	EncodeCache *EncodeCache
	// SolutionCache, when non-nil, memoizes certified per-policy
	// placement fragments on the decomposed solve path (see
	// decompose.go), keyed by the full subproblem rendering. The
	// stateful session layer attaches one per session so small deltas
	// re-certify only the subproblems they changed. The placement is
	// byte-identical with or without it
	// (TestDecomposedSolutionCacheByteIdentity).
	SolutionCache *SolutionCache
}

// withDefaults fills in unset options.
func (o Options) withDefaults() Options {
	if o.Backend == 0 {
		o.Backend = BackendILP
	}
	if o.Objective == 0 {
		o.Objective = ObjTotalRules
	}
	return o
}

// Monitor declares a packet-monitoring rule installed at a switch: all
// packets matching Match that traverse Switch must reach it un-dropped.
type Monitor struct {
	Switch topology.SwitchID
	Match  match.Ternary
}

// Problem is a rule placement instance: the network, the routing produced
// by the external routing module, and one ACL policy per ingress.
type Problem struct {
	Network  *topology.Network
	Routing  *routing.Routing
	Policies []*policy.Policy
}

// Validation errors.
var (
	ErrNoRouting     = errors.New("core: policy ingress has no routing paths")
	ErrDupPolicy     = errors.New("core: multiple policies for one ingress")
	ErrNilField      = errors.New("core: problem field is nil")
	ErrUnknownSwitch = errors.New("core: routing references unknown switch")
)

// Validate checks the problem's cross-references.
func (p *Problem) Validate() error {
	if p.Network == nil || p.Routing == nil {
		return ErrNilField
	}
	if err := p.Network.Validate(); err != nil {
		return err
	}
	seen := make(map[int]bool, len(p.Policies))
	for _, pol := range p.Policies {
		if err := pol.Validate(); err != nil {
			return err
		}
		if seen[pol.Ingress] {
			return fmt.Errorf("%w: ingress %d", ErrDupPolicy, pol.Ingress)
		}
		seen[pol.Ingress] = true
		ps, ok := p.Routing.Sets[topology.PortID(pol.Ingress)]
		if !ok || len(ps.Paths) == 0 {
			return fmt.Errorf("%w: ingress %d", ErrNoRouting, pol.Ingress)
		}
		for _, path := range ps.Paths {
			for _, sw := range path.Switches {
				if _, ok := p.Network.Switch(sw); !ok {
					return fmt.Errorf("%w: %d", ErrUnknownSwitch, sw)
				}
			}
		}
	}
	return nil
}

// Status is the outcome of a placement run.
type Status int

// Placement outcomes.
const (
	// StatusOptimal means the placement provably minimizes the objective.
	StatusOptimal Status = iota + 1
	// StatusFeasible means a valid placement was found, but optimality
	// was not proven (SatisfyOnly, or a limit expired with an incumbent).
	StatusFeasible
	// StatusInfeasible means no placement satisfies the constraints.
	StatusInfeasible
	// StatusLimit means the time/search budget expired with no placement.
	StatusLimit
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusLimit:
		return "limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// SolvePath names the route through Place that produced a placement.
type SolvePath string

// Solve paths.
const (
	// SolveCertified: decomposed, and every per-policy fragment was
	// proven optimal by the counting bound, with no LP (see certify).
	SolveCertified SolvePath = "certified"
	// SolveFallback: the decomposition was tried and given up (a policy
	// failed the certificate, or the stitch broke a capacity), and the
	// joint solve answered.
	SolveFallback SolvePath = "fallback"
	// SolveJoint: the instance does not qualify for decomposition, and
	// the joint solve answered.
	SolveJoint SolvePath = "joint"
)

// Stats reports solver effort: the ILP backend's branch & bound
// counters, passed unchanged from ilp.Solve (zero on the other
// backends and on certified fragments), plus what the encoding and
// the SAT backend add, and the path the answer took.
type Stats struct {
	ilp.Stats
	Backend      Backend
	Variables    int
	Constraints  int
	SolveTime    time.Duration
	SATConflicts int64
	SATDecisions int64
	SolvePath    SolvePath
}

// Placement is the result of solving a placement problem.
type Placement struct {
	Status Status
	// TotalRules is the number of TCAM slots used network-wide, with
	// merged rules counted once per switch.
	TotalRules int
	// Objective is the solver's objective value (equals TotalRules for
	// ObjTotalRules).
	Objective float64
	// Assign[pi][ri] lists the switches rule ri of policy pi occupies.
	// Policies and rules are indexed as in the (possibly redundancy-
	// reduced) Policies slice below.
	Assign [][][]topology.SwitchID
	// Policies are the policies actually placed (after optional
	// redundancy removal), parallel to Assign.
	Policies []*policy.Policy
	// Groups are the merge groups considered; MergedAt[g] holds the
	// switches where group g was installed as a single shared rule.
	Groups   []deps.MergeGroup
	MergedAt [][]topology.SwitchID
	// MaxLoad is the maximum per-switch utilization fraction, reported
	// when ObjMinMaxLoad is the objective.
	MaxLoad float64
	Stats   Stats
}

// RuleCountAt returns the TCAM slots used at one switch.
func (pl *Placement) RuleCountAt(sw topology.SwitchID) int {
	count := 0
	for pi := range pl.Assign {
		for ri := range pl.Assign[pi] {
			for _, s := range pl.Assign[pi][ri] {
				if s == sw {
					count++
				}
			}
		}
	}
	// Merged rules: members were counted individually above; a merged
	// installation collapses M member slots into 1.
	for g, sws := range pl.MergedAt {
		for _, s := range sws {
			if s == sw {
				count -= pl.membersAt(g, sw) - 1
			}
		}
	}
	return count
}

// membersAt counts group g's members placed at switch sw.
func (pl *Placement) membersAt(g int, sw topology.SwitchID) int {
	n := 0
	for _, m := range pl.Groups[g].Members {
		for _, s := range pl.Assign[m.Policy][m.Rule] {
			if s == sw {
				n++
			}
		}
	}
	return n
}
