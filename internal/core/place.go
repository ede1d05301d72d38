package core

import (
	"fmt"
	"time"

	"rulefit/internal/ilp"
	"rulefit/internal/obs"
	"rulefit/internal/sat"
	"rulefit/internal/topology"
)

// Place solves the rule placement problem per the paper's flow (Fig. 4):
// optional redundancy removal, dependency graph construction, mergeable
// rule detection, encoding, solving, and solution extraction. Tag
// assignment happens when tables are compiled (BuildTables).
func Place(prob *Problem, opts Options) (*Placement, error) {
	opts = opts.withDefaults()
	place := opts.Trace.Span("place")
	defer place.End()
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	// Per-policy decomposition: when policies couple only through the
	// capacity rows, certify each optimum by counting and stitch —
	// provably optimal when the stitched optima respect every capacity,
	// and the basis of the stateful delta path's per-policy fragment
	// reuse. It runs no solver, so an answer runs at most one solve.
	// Deterministic: whether it applies and whether the stitch is
	// accepted are pure functions of (prob, opts).
	path := SolveJoint
	if decomposable(prob, opts) {
		if pl, ok := placeDecomposed(prob, opts, place); ok {
			return pl, nil
		}
		path = SolveFallback
	}
	enc, err := encodeTraced(prob, opts, place)
	if err != nil {
		return nil, err
	}
	if enc.infeasibleReason != "" {
		// The encoding itself proved the instance unsatisfiable (e.g. a
		// monitoring constraint leaves a DROP rule nowhere to go).
		return &Placement{
			Status:   StatusInfeasible,
			Policies: enc.policies,
			Groups:   enc.groups,
			Stats:    Stats{Stats: ilp.Stats{Gap: -1, RootGap: -1}, Backend: opts.Backend, SolvePath: path},
		}, nil
	}
	if opts.Objective == ObjMinMaxLoad && opts.Backend != BackendILP && !opts.SatisfyOnly {
		return nil, fmt.Errorf("core: %v requires the ILP backend", opts.Objective)
	}
	start := time.Now()
	var pl *Placement
	switch opts.Backend {
	case BackendILP:
		pl, err = solveILP(enc, opts, place)
	case BackendSAT:
		pl, err = solveSAT(enc, opts, place)
	default:
		return nil, fmt.Errorf("core: unknown backend %v", opts.Backend)
	}
	if err != nil {
		return nil, err
	}
	pl.Stats.Backend = opts.Backend
	pl.Stats.Variables = len(enc.vars)
	pl.Stats.Constraints = enc.numConstraints()
	pl.Stats.SolveTime = time.Since(start)
	pl.Stats.SolvePath = path
	return pl, nil
}

// encodeTraced runs buildEncoding under an "encode" child of span and
// ends that span on every path, recording the encoding's size.
func encodeTraced(prob *Problem, opts Options, span *obs.Span) (*encoding, error) {
	sp := span.Child("encode")
	defer sp.End()
	enc, err := buildEncoding(prob, opts, sp)
	if err == nil && sp != nil {
		sp.SetCount("vars", int64(len(enc.vars)))
		sp.SetCount("constraints", int64(enc.numConstraints()))
	}
	return enc, err
}

// solveILP encodes to the MILP solver (Eqs. 1–5) and extracts the result.
func solveILP(enc *encoding, opts Options, span *obs.Span) (*Placement, error) {
	buildSp := span.Child("model_build")
	m, ids, zVar := buildILPModel(enc, opts)
	if buildSp != nil {
		buildSp.SetCount("vars", int64(m.NumVars()))
		buildSp.SetCount("constraints", int64(m.NumConstraints()))
	}
	buildSp.End()
	solveSp := span.Child("solve")
	sol, err := ilp.Solve(m, ilp.Options{
		TimeLimit: opts.TimeLimit,
		Sink:      opts.SolverSink,
		Span:      solveSp,
	})
	if err != nil {
		solveSp.End()
		return nil, err
	}
	solveSp.SetCount("nodes", int64(sol.Stats.BnBNodes))
	solveSp.SetCount("iters", int64(sol.Stats.SimplexIters))
	solveSp.End()
	pl := &Placement{Policies: enc.policies, Groups: enc.groups, Stats: Stats{Stats: sol.Stats}}
	switch sol.Status {
	case ilp.Optimal:
		pl.Status = StatusOptimal
	case ilp.Feasible:
		pl.Status = StatusFeasible
	case ilp.Infeasible:
		pl.Status = StatusInfeasible
		return pl, nil
	default:
		pl.Status = StatusLimit
		return pl, nil
	}
	extractSp := span.Child("extract")
	assignment := func(id int) bool { return sol.Values[ids[id]] > 0.5 }
	extract(enc, pl, assignment)
	extractSp.End()
	pl.Objective = sol.Objective
	if zVar >= 0 {
		pl.MaxLoad = sol.Values[zVar]
	}
	return pl, nil
}

// buildILPModel translates an encoding into the MILP model. It returns
// the model, the ilp variable index for each encoding variable, and the
// index of the max-load variable z (-1 when absent). The construction is
// deterministic: identical encodings yield models whose LP serialization
// is byte-identical (see TestILPModelDeterministic).
func buildILPModel(enc *encoding, opts Options) (m *ilp.Model, ids []int, zVar int) {
	m = ilp.NewModel()
	weights := enc.objectiveWeights()
	ids = make([]int, len(enc.vars))
	for id := range enc.vars {
		obj := float64(weights[id])
		if opts.SatisfyOnly {
			obj = 0
		}
		ids[id] = m.AddBinary(fmt.Sprintf("v%d", id), obj)
	}
	// ObjMinMaxLoad: a continuous z dominating every switch's TCAM
	// utilization fraction, minimized lexicographically above the rule
	// count (the tiebreak keeps placements small within the same load).
	zVar = -1
	if opts.Objective == ObjMinMaxLoad && !opts.SatisfyOnly {
		zVar = m.AddVar("z", 0, 1, float64(len(enc.vars)+1))
		for _, row := range enc.capRows {
			if row.cap <= 0 {
				continue
			}
			terms := make([]ilp.Term, 0, len(row.ruleVars)+len(row.merged)+1)
			for _, v := range row.ruleVars {
				terms = append(terms, ilp.Term{Var: ids[v], Coef: 1})
			}
			for _, mt := range row.merged {
				terms = append(terms, ilp.Term{Var: ids[mt.mv], Coef: -float64(mt.savings)})
			}
			terms = append(terms, ilp.Term{Var: zVar, Coef: -float64(row.cap)})
			m.AddConstraint(terms, ilp.LE, 0, "load")
		}
	}
	// Eq. 1: v_w <= v_u.
	for _, imp := range enc.imps {
		m.AddConstraint([]ilp.Term{{Var: ids[imp[0]], Coef: 1}, {Var: ids[imp[1]], Coef: -1}}, ilp.LE, 0, "dep")
	}
	// Eq. 2 (per path): sum >= 1.
	for _, cover := range enc.covers {
		terms := make([]ilp.Term, len(cover))
		for i, v := range cover {
			terms[i] = ilp.Term{Var: ids[v], Coef: 1}
		}
		m.AddConstraint(terms, ilp.GE, 1, "path")
	}
	// Eqs. 4–5: merged variable linking. Eq. 4 is used as printed; the
	// paper's aggregated Eq. 5 (mv <= sum/M) is replaced by the
	// per-member form mv <= v_i, which has the same 0/1 solutions but a
	// much tighter LP relaxation (branch & bound proves merged optima
	// instead of timing out on a weak bound).
	for _, mc := range enc.merges {
		bigM := float64(len(mc.members))
		// mv >= sum - (M-1)  <=>  sum - mv <= M-1.
		terms := make([]ilp.Term, 0, len(mc.members)+1)
		for _, v := range mc.members {
			terms = append(terms, ilp.Term{Var: ids[v], Coef: 1})
		}
		terms = append(terms, ilp.Term{Var: ids[mc.mv], Coef: -1})
		m.AddConstraint(terms, ilp.LE, bigM-1, "merge-lb")
		for _, v := range mc.members {
			m.AddConstraint([]ilp.Term{{Var: ids[mc.mv], Coef: 1}, {Var: ids[v], Coef: -1}}, ilp.LE, 0, "merge-ub")
		}
	}
	// Eq. 3: capacities with merged savings.
	for _, row := range enc.capRows {
		terms := make([]ilp.Term, 0, len(row.ruleVars)+len(row.merged))
		for _, v := range row.ruleVars {
			terms = append(terms, ilp.Term{Var: ids[v], Coef: 1})
		}
		for _, mt := range row.merged {
			terms = append(terms, ilp.Term{Var: ids[mt.mv], Coef: -float64(mt.savings)})
		}
		m.AddConstraint(terms, ilp.LE, float64(row.cap), "cap")
	}
	return m, ids, zVar
}

// solveSAT encodes to the CDCL/PB solver (Eqs. 6–8) and extracts.
func solveSAT(enc *encoding, opts Options, span *obs.Span) (*Placement, error) {
	solveSp := span.Child("solve")
	defer solveSp.End()
	s := sat.NewSolver()
	if opts.TimeLimit > 0 {
		s.SetDeadline(time.Now().Add(opts.TimeLimit))
	}
	ids := make([]int, len(enc.vars))
	for id := range enc.vars {
		ids[id] = s.NewVar()
	}
	ok := true
	// Eq. 6: v_w -> v_u.
	for _, imp := range enc.imps {
		ok = ok && s.AddClause(-ids[imp[0]], ids[imp[1]])
	}
	// Eq. 7: coverage.
	for _, cover := range enc.covers {
		lits := make([]int, len(cover))
		for i, v := range cover {
			lits[i] = ids[v]
		}
		ok = ok && s.AddClause(lits...)
	}
	// Eq. 8: mv <-> AND(members).
	for _, mc := range enc.merges {
		long := make([]int, 0, len(mc.members)+1)
		long = append(long, ids[mc.mv])
		for _, v := range mc.members {
			ok = ok && s.AddClause(-ids[mc.mv], ids[v])
			long = append(long, -ids[v])
		}
		ok = ok && s.AddClause(long...)
	}
	// Eq. 3 as PB rows. Negative merged coefficients are rewritten over
	// negated literals: -(s)*mv == s*(1-mv) - s.
	for _, row := range enc.capRows {
		lits := make([]int, 0, len(row.ruleVars)+len(row.merged))
		ws := make([]int64, 0, cap(lits))
		bound := int64(row.cap)
		for _, v := range row.ruleVars {
			lits = append(lits, ids[v])
			ws = append(ws, 1)
		}
		for _, mt := range row.merged {
			lits = append(lits, -ids[mt.mv])
			ws = append(ws, int64(mt.savings))
			bound += int64(mt.savings)
		}
		ok = ok && s.AddPB(lits, ws, bound)
	}

	pl := &Placement{Policies: enc.policies, Groups: enc.groups}
	pl.Stats.Gap = -1 // the SAT backend carries no LP bound
	pl.Stats.RootGap = -1
	if !ok {
		pl.Status = StatusInfeasible
		return pl, nil
	}

	if opts.SatisfyOnly {
		st := s.Solve()
		pl.Stats.SATConflicts = s.Conflicts
		pl.Stats.SATDecisions = s.Decisions
		switch st {
		case sat.Sat:
			pl.Status = StatusFeasible
			extract(enc, pl, func(id int) bool { return s.Value(ids[id]) })
			pl.Objective = float64(pl.TotalRules)
		case sat.Unsat:
			pl.Status = StatusInfeasible
		default:
			pl.Status = StatusLimit
		}
		return pl, nil
	}

	// Optimization: objective weights over literals; negative merged
	// weights are rewritten over negated literals with a constant shift.
	weights := enc.objectiveWeights()
	var lits []int
	var ws []int64
	var shift int64
	for id, w := range weights {
		switch {
		case w > 0:
			lits = append(lits, ids[id])
			ws = append(ws, w)
		case w < 0:
			lits = append(lits, -ids[id])
			ws = append(ws, -w)
			shift += w // objective = sum(true-lit weights) + shift
		}
	}
	best, model, st := s.Minimize(lits, ws)
	pl.Stats.SATConflicts = s.Conflicts
	pl.Stats.SATDecisions = s.Decisions
	switch st {
	case sat.Sat:
		pl.Status = StatusOptimal
	case sat.Unknown:
		if model == nil {
			pl.Status = StatusLimit
			return pl, nil
		}
		pl.Status = StatusFeasible
	default:
		pl.Status = StatusInfeasible
		return pl, nil
	}
	extract(enc, pl, func(id int) bool { return model[ids[id]] })
	pl.Objective = float64(best + shift)
	return pl, nil
}

// extract converts a variable assignment into the Placement structures
// and computes the TCAM slot total.
func extract(enc *encoding, pl *Placement, val func(int) bool) {
	pl.Assign = make([][][]topology.SwitchID, len(enc.policies))
	for pi, pol := range enc.policies {
		pl.Assign[pi] = make([][]topology.SwitchID, len(pol.Rules))
	}
	slots := 0
	for id, v := range enc.vars {
		if !val(id) {
			continue
		}
		switch v.kind {
		case varRule:
			pl.Assign[v.pol][v.rule] = append(pl.Assign[v.pol][v.rule], v.sw)
			slots++
		}
	}
	pl.MergedAt = make([][]topology.SwitchID, len(enc.groups))
	for _, mc := range enc.merges {
		if !val(mc.mv) {
			continue
		}
		v := enc.vars[mc.mv]
		pl.MergedAt[v.group] = append(pl.MergedAt[v.group], v.sw)
		slots -= len(mc.members) - 1
	}
	pl.TotalRules = slots
}
