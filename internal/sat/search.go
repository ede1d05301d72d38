package sat

import (
	"sort"
	"time"
)

// cancelUntil undoes all assignments above the given decision level,
// keeping PB counters consistent and saving phases.
func (s *Solver) cancelUntil(level int32) {
	if s.decisionLevel <= level {
		return
	}
	for i := len(s.trail) - 1; i >= 0; i-- {
		l := s.trail[i]
		v := l.variable()
		if s.level[v] <= level {
			s.trail = s.trail[:i+1]
			break
		}
		for _, occ := range s.pbWatch[l] {
			s.pbs[occ.idx].sumTrue -= occ.w
		}
		s.phase[v] = s.assign[v] == vTrue
		s.assign[v] = vUndef
		s.reasons[v] = reason{}
		s.order.push(v)
		if i == 0 {
			s.trail = s.trail[:0]
		}
	}
	s.qhead = len(s.trail)
	s.decisionLevel = level
}

// reasonLits collects the literals explaining an assignment or conflict.
// For a clause it is the clause's literals; for a PB constraint it is the
// negations of the true literals assigned before position limit.
func (s *Solver) reasonLits(r reason, skip ilit, limit int32, out []ilit) []ilit {
	switch {
	case r.cl != nil:
		for _, l := range r.cl.lits {
			if l != skip {
				out = append(out, l)
			}
		}
	case r.pb != nil:
		for _, l := range r.pb.lits {
			if l == skip {
				continue
			}
			if s.value(l) == vTrue && s.trailI[l.variable()] < limit {
				out = append(out, l.neg())
			}
		}
	}
	return out
}

// analyze performs 1UIP conflict analysis, returning the learnt clause
// (with the asserting literal first) and the backjump level.
func (s *Solver) analyze(confl *conflictInfo) ([]ilit, int32) {
	learnt := []ilit{0} // slot for the asserting literal
	counter := 0
	var p ilit
	haveP := false
	idx := len(s.trail) - 1

	var rlits []ilit
	if confl.cl != nil {
		rlits = append(rlits, confl.cl.lits...)
	} else {
		for _, l := range confl.pb.lits {
			if s.value(l) == vTrue {
				rlits = append(rlits, l.neg())
			}
		}
	}
	for {
		for _, q := range rlits {
			v := q.variable()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.toClear = append(s.toClear, v)
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk the trail backwards to the next marked literal.
		for idx >= 0 && !s.seen[s.trail[idx].variable()] {
			idx--
		}
		if idx < 0 {
			break
		}
		p = s.trail[idx]
		haveP = true
		pv := p.variable()
		s.seen[pv] = false
		counter--
		idx--
		if counter <= 0 {
			break
		}
		rlits = s.reasonLits(s.reasons[pv], p, s.trailI[pv], rlits[:0])
	}
	if haveP {
		learnt[0] = p.neg()
	} else {
		learnt = learnt[1:]
	}

	learnt = s.minimizeLearnt(learnt)

	// Clear seen flags.
	for _, v := range s.toClear {
		s.seen[v] = false
	}
	s.toClear = s.toClear[:0]

	// Backjump level: highest level among learnt[1:].
	bj := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].variable()] > s.level[learnt[maxI].variable()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bj = s.level[learnt[1].variable()]
	}
	return learnt, bj
}

// minimizeLearnt drops redundant literals from a learnt clause: a
// non-asserting literal whose reason literals all already appear in the
// clause (or sit at level 0) is implied by the rest and can be removed
// (MiniSat's basic self-subsumption). Relies on the seen[] flags still
// marking the clause variables; removed literals keep their flags set,
// which only makes the check more conservative.
func (s *Solver) minimizeLearnt(learnt []ilit) []ilit {
	if len(learnt) <= 1 {
		return learnt
	}
	// seen[] currently marks exactly the clause variables (minus the
	// asserting literal, which analyze unset); re-mark it for membership
	// tests.
	av := learnt[0].variable()
	restore := !s.seen[av]
	s.seen[av] = true
	w := 1
	for i := 1; i < len(learnt); i++ {
		q := learnt[i]
		v := q.variable()
		r := s.reasons[v]
		if r.cl == nil && r.pb == nil {
			learnt[w] = q // decision literal: must keep
			w++
			continue
		}
		redundant := true
		for _, l := range s.reasonLits(r, q.neg(), s.trailI[v], nil) {
			lv := l.variable()
			if s.level[lv] != 0 && !s.seen[lv] {
				redundant = false
				break
			}
		}
		if !redundant {
			learnt[w] = q
			w++
		}
	}
	if restore {
		s.seen[av] = false
	}
	return learnt[:w]
}

// bumpVar increases a variable's VSIDS activity.
func (s *Solver) bumpVar(v int32) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

// decayVars scales up the activity increment (equivalent to decaying all).
func (s *Solver) decayVars() { s.varInc /= 0.95 }

// pickBranch selects the next decision literal, or 0 when all assigned.
func (s *Solver) pickBranch() ilit {
	for {
		v := s.order.pop()
		if v == 0 {
			return 0
		}
		if s.assign[v] == vUndef {
			if s.phase[v] {
				return ilit(2 * v)
			}
			return ilit(2*v + 1)
		}
	}
}

// lubyRec returns the i-th element (1-based) of the Luby restart series
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
func lubyRec(i int64) int64 {
	var k uint
	for k = 1; (int64(1)<<k)-1 < i; k++ {
	}
	if i == (int64(1)<<k)-1 {
		return int64(1) << (k - 1)
	}
	return lubyRec(i - ((int64(1) << (k - 1)) - 1))
}

// Solve searches for a model under the given assumption literals.
func (s *Solver) Solve(assumptions ...int) Status {
	if !s.ok {
		return Unsat
	}
	s.cancelUntil(0)
	if s.propagate() != nil {
		s.ok = false
		return Unsat
	}

	asm := make([]ilit, len(assumptions))
	for i, a := range assumptions {
		asm[i] = toILit(a)
	}

	var restartNum int64
	conflictBudget := int64(100)
	maxLearnts := len(s.clauses)/2 + 1000
	var loopIters int64

	for {
		conflictsThisRestart := int64(0)
		// (Re)apply assumptions after any restart.
		s.cancelUntil(0)
		asmOK := true
		for _, a := range asm {
			switch s.value(a) {
			case vTrue:
				continue
			case vFalse:
				asmOK = false
			default:
				s.decisionLevel++
				s.uncheckedEnqueue(a, reason{})
				if s.propagate() != nil {
					asmOK = false
				}
			}
			if !asmOK {
				break
			}
		}
		if !asmOK {
			s.cancelUntil(0)
			return Unsat
		}
		asmLevel := s.decisionLevel

		for {
			loopIters++
			if !s.deadline.IsZero() && loopIters%512 == 0 && time.Now().After(s.deadline) {
				s.cancelUntil(0)
				return Unknown
			}
			confl := s.propagate()
			if confl != nil {
				s.Conflicts++
				conflictsThisRestart++
				if s.decisionLevel == 0 {
					s.ok = false
					return Unsat
				}
				if s.decisionLevel <= asmLevel {
					// Conflict within the assumption prefix: UNSAT under
					// these assumptions only.
					s.cancelUntil(0)
					return Unsat
				}
				learnt, bj := s.analyze(confl)
				if bj < asmLevel {
					bj = asmLevel
				}
				s.cancelUntil(bj)
				if len(learnt) == 0 {
					s.cancelUntil(0)
					s.ok = false
					return Unsat
				}
				if len(learnt) == 1 {
					if s.value(learnt[0]) == vFalse {
						s.cancelUntil(0)
						if len(asm) == 0 {
							s.ok = false
						}
						return Unsat
					}
					if s.value(learnt[0]) == vUndef {
						s.uncheckedEnqueue(learnt[0], reason{})
					}
				} else {
					c := &clause{lits: append([]ilit(nil), learnt...), learnt: true, activity: 1}
					s.learnts = append(s.learnts, c)
					s.watchClause(c)
					s.uncheckedEnqueue(c.lits[0], reason{cl: c})
				}
				s.decayVars()
				continue
			}

			if conflictsThisRestart >= conflictBudget {
				// Restart.
				s.Restarts++
				restartNum++
				conflictBudget = 64 * lubyRec(restartNum+1)
				if len(s.learnts) > maxLearnts {
					s.reduceDB()
					maxLearnts += maxLearnts / 10
				}
				break // back to the outer loop (re-applies assumptions)
			}
			l := s.pickBranch()
			if l == 0 {
				// All variables assigned: model found.
				return Sat
			}
			s.Decisions++
			s.decisionLevel++
			s.uncheckedEnqueue(l, reason{})
		}
	}
}

// reduceDB removes the least active half of the learnt clauses that are
// not currently reasons.
func (s *Solver) reduceDB() {
	if len(s.learnts) == 0 {
		return
	}
	sort.Slice(s.learnts, func(a, b int) bool {
		return s.learnts[a].activity > s.learnts[b].activity
	})
	keep := s.learnts[:len(s.learnts)/2]
	drop := s.learnts[len(s.learnts)/2:]
	kept := keep
	for _, c := range drop {
		if s.isReason(c) || len(c.lits) <= 2 {
			kept = append(kept, c)
			continue
		}
		s.unwatchClause(c)
	}
	s.learnts = append([]*clause(nil), kept...)
}

// isReason reports whether a clause is the reason of a current assignment.
func (s *Solver) isReason(c *clause) bool {
	v := c.lits[0].variable()
	return s.assign[v] != vUndef && s.reasons[v].cl == c
}

// unwatchClause removes a clause from its two watch lists.
func (s *Solver) unwatchClause(c *clause) {
	for _, w := range []ilit{c.lits[0].neg(), c.lits[1].neg()} {
		ws := s.watches[w]
		for i, cc := range ws {
			if cc == c {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// Model returns the current assignment as a map from variable to value.
// Valid only after Solve returned Sat.
func (s *Solver) Model() map[int]bool {
	m := make(map[int]bool, s.nVars)
	for v := 1; v <= s.nVars; v++ {
		m[v] = s.assign[v] == vTrue
	}
	return m
}

// Minimize finds an assignment minimizing the weighted count of
// satisfied objective literals (signed: -v counts when v is false),
// subject to all added constraints, by SAT–UNSAT descent: each model
// tightens the bound to best − 1 until a probe is UNSAT. Each probe
// bound has its own activation literal so an UNSAT probe does not poison
// the instance; probes resolve to unit clauses, keeping search incremental.
//
// It returns the best objective, the best model, and Sat when optimality
// was proven; Unknown with the best-so-far when the deadline expires; or
// Unsat when no model exists at all. The solver holds the bound
// constraints afterwards and should not be reused for other queries.
func (s *Solver) Minimize(lits []int, weights []int64) (int64, map[int]bool, Status) {
	st := s.Solve()
	if st != Sat {
		return 0, nil, st
	}
	best := s.objective(lits, weights)
	model := s.Model()
	var totalW int64
	for _, w := range weights {
		totalW += w
	}
	for best > 0 {
		bound := best - 1 // SAT-UNSAT descent: probes stay satisfiable
		act := s.NewVar()
		// sum(w·obj) + (totalW-bound)·act <= totalW: with act true the
		// objective is bounded; with act false the constraint is inert
		// (the objective can never exceed totalW).
		plits := append(append([]int(nil), lits...), act)
		pws := append(append([]int64(nil), weights...), totalW-bound)
		if !s.AddPB(plits, pws, totalW) {
			break // solver hit a root conflict: current best is optimal
		}
		st = s.Solve(act)
		switch st {
		case Unknown:
			return best, model, Unknown
		case Sat:
			if obj := s.objective(lits, weights); obj < best {
				best = obj
				model = s.Model()
			}
			s.AddClause(act) // optimum <= bound: keep it active
		default:
			// Unsat at best-1: the current best is proven optimal.
			s.AddClause(-act)
			return best, model, Sat
		}
		if !s.ok {
			break
		}
	}
	return best, model, Sat
}

// objective sums the weights of the satisfied objective literals.
func (s *Solver) objective(lits []int, weights []int64) int64 {
	var total int64
	for i, l := range lits {
		v := l
		want := vTrue
		if l < 0 {
			v, want = -l, vFalse
		}
		if s.assign[v] == want {
			total += weights[i]
		}
	}
	return total
}

// varHeap is a max-heap of variables ordered by VSIDS activity.
type varHeap struct {
	solver *Solver
	heap   []int32
	index  map[int32]int
}

func (h *varHeap) less(a, b int32) bool {
	return h.solver.activity[a] > h.solver.activity[b]
}

func (h *varHeap) push(v int32) {
	if h.index == nil {
		h.index = make(map[int32]int)
	}
	if _, ok := h.index[v]; ok {
		return
	}
	h.heap = append(h.heap, v)
	h.index[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int32 {
	for len(h.heap) > 0 {
		top := h.heap[0]
		last := len(h.heap) - 1
		h.heap[0] = h.heap[last]
		h.index[h.heap[0]] = 0
		h.heap = h.heap[:last]
		delete(h.index, top)
		if len(h.heap) > 0 {
			h.down(0)
		}
		return top
	}
	return 0
}

func (h *varHeap) update(v int32) {
	if i, ok := h.index[v]; ok {
		h.up(i)
		h.down(i)
	}
}

func (h *varHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.heap) && h.less(h.heap[l], h.heap[smallest]) {
			smallest = l
		}
		if r < len(h.heap) && h.less(h.heap[r], h.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *varHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.index[h.heap[a]] = a
	h.index[h.heap[b]] = b
}
