package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"net/http"

	"rulefit/internal/core"
	"rulefit/internal/daemon"
	"rulefit/internal/topology"
	"rulefit/internal/verify"
)

// reference is the committed answer to one fixed item. The optimal
// rule total is unique even when tied placements are not, so the pair
// survives a change that returns a different tied optimum. An item
// with no proven answer within its budget has no total: a proven
// answer to it is then checked by verification alone.
type reference struct {
	Status     string `json:"status"`
	TotalRules *int   `json:"total_rules,omitempty"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReferences(workload string) (map[string]reference, error) {
	var all map[string]map[string]reference
	if err := json.Unmarshal(referenceJSON, &all); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return all[workload], nil
}

// wireAnswer is the part of a /v1/place or session delta reply the
// checks read.
type wireAnswer struct {
	Path      string          `json:"path"`
	Placement json.RawMessage `json:"placement"`
}

// outcome is the verdict on one answer. A failed answer is refused,
// unproven, or wrong; a wrong one is a proven answer that disagrees
// with its reference or fails verification.
type outcome struct {
	failed, wrong bool
	reason        string
	status        string
	placement     json.RawMessage // nil unless the reply parsed
	path          string          // session ladder level
}

// checker judges answers. expect, when set, holds the in-process
// placement bytes for each timed operation: the committed daemon
// contract is that an HTTP answer is byte-identical to them.
type checker struct {
	p        *plan
	refs     map[string]reference
	expect   [][]byte
	verified map[string]string // placement bytes -> verification error ("" = clean)
}

func newChecker(p *plan) (*checker, error) {
	c := &checker{p: p, verified: map[string]string{}}
	if p.workload != sessionDelta {
		refs, err := loadReferences(p.workload)
		if err != nil {
			return nil, err
		}
		for _, it := range p.items {
			if _, ok := refs[it.name]; !ok {
				return nil, fmt.Errorf("reference.json has no %s/%s", p.workload, it.name)
			}
		}
		c.refs = refs
	}
	return c, nil
}

// check judges the answer to timed operation i.
func (c *checker) check(i int, a answer) outcome {
	switch {
	case a.err != nil:
		return outcome{failed: true, reason: a.err.Error()}
	case a.code == http.StatusTooManyRequests:
		return outcome{failed: true, reason: "shed (429)"}
	case a.code != http.StatusOK:
		return outcome{failed: true, reason: fmt.Sprintf("HTTP %d: %s", a.code, bytes.TrimSpace(a.body))}
	}
	var w wireAnswer
	var pl daemon.Placement
	if err := json.Unmarshal(a.body, &w); err != nil {
		return outcome{failed: true, wrong: true, reason: "unparseable reply: " + err.Error()}
	}
	if err := json.Unmarshal(w.Placement, &pl); err != nil {
		return outcome{failed: true, wrong: true, reason: "unparseable placement: " + err.Error()}
	}
	o := outcome{status: pl.Status, placement: w.Placement, path: w.Path}
	wrong := func(format string, args ...any) outcome {
		o.failed, o.wrong, o.reason = true, true, fmt.Sprintf(format, args...)
		return o
	}
	if pl.Status == "limit" || pl.Status == "feasible" {
		o.failed, o.reason = true, "no proven answer within the budget (status "+pl.Status+")"
		return o
	}
	prob, merging := c.instance(i)
	if c.refs != nil {
		ref := c.refs[c.p.items[c.p.order[i]].name]
		if ref.TotalRules != nil && (pl.Status != ref.Status || pl.TotalRules != *ref.TotalRules) {
			return wrong("answer (%s, %d rules) != reference (%s, %d rules)", pl.Status, pl.TotalRules, ref.Status, *ref.TotalRules)
		}
	}
	if c.expect != nil && !bytes.Equal(w.Placement, c.expect[i]) {
		return wrong("placement differs from the in-process answer")
	}
	if pl.Status != "optimal" {
		return o // a proven infeasibility has nothing to verify
	}
	if err := checkShape(prob, pl, merging); err != nil {
		return wrong("%v", err)
	}
	if !merging && prob != nil {
		key := string(w.Placement)
		msg, seen := c.verified[key]
		if !seen {
			msg = verifyWire(prob, pl)
			c.verified[key] = msg
		}
		if msg != "" {
			return wrong("%s", msg)
		}
	}
	return o
}

// instance returns the problem and merging mode behind operation i.
// Session answers are checked against the in-process replay (expect)
// and by shape against the base instance, whose switches and policy
// count every edit keeps.
func (c *checker) instance(i int) (*core.Problem, bool) {
	if c.p.workload == sessionDelta {
		return nil, false
	}
	it := c.p.items[c.p.order[i]]
	return it.prob, it.merging
}

// checkShape verifies a placement without solving: one switch list per
// rule, known switches, and, without merging, a rule total equal to
// the slots assigned and within every switch's capacity.
func checkShape(prob *core.Problem, pl daemon.Placement, merging bool) error {
	slots := 0
	used := map[int]int{}
	for pi := range pl.Assign {
		if prob != nil && (pi >= len(prob.Policies) || len(pl.Assign[pi]) != len(prob.Policies[pi].Rules)) {
			return fmt.Errorf("assignment shape does not match policy %d", pi)
		}
		for _, sws := range pl.Assign[pi] {
			for _, sw := range sws {
				if prob != nil {
					if _, ok := prob.Network.Switch(topology.SwitchID(sw)); !ok {
						return fmt.Errorf("unknown switch %d", sw)
					}
				}
				used[sw]++
				slots++
			}
		}
	}
	if prob != nil && len(pl.Assign) != len(prob.Policies) {
		return fmt.Errorf("%d policies assigned, instance has %d", len(pl.Assign), len(prob.Policies))
	}
	if merging {
		if pl.TotalRules > slots {
			return fmt.Errorf("total_rules %d exceeds the %d slots assigned", pl.TotalRules, slots)
		}
		return nil
	}
	if len(pl.MergedAt) != 0 {
		return fmt.Errorf("merged rules without merging")
	}
	if pl.TotalRules != slots {
		return fmt.Errorf("total_rules %d != %d slots assigned", pl.TotalRules, slots)
	}
	if prob != nil {
		for id, n := range used {
			if sw, _ := prob.Network.Switch(topology.SwitchID(id)); n > sw.Capacity {
				return fmt.Errorf("switch %d holds %d rules, capacity %d", id, n, sw.Capacity)
			}
		}
	}
	return nil
}

// verifyWire compiles a merging-off wire placement to switch tables
// and runs the capacity and sampled-semantics verifiers on them.
func verifyWire(prob *core.Problem, pl daemon.Placement) string {
	cp := &core.Placement{Status: core.StatusOptimal, TotalRules: pl.TotalRules, Policies: prob.Policies,
		Assign: make([][][]topology.SwitchID, len(pl.Assign))}
	for pi := range pl.Assign {
		cp.Assign[pi] = make([][]topology.SwitchID, len(pl.Assign[pi]))
		for ri, sws := range pl.Assign[pi] {
			for _, sw := range sws {
				cp.Assign[pi][ri] = append(cp.Assign[pi][ri], topology.SwitchID(sw))
			}
		}
	}
	net, err := cp.BuildTables(prob)
	if err != nil {
		return "tables: " + err.Error()
	}
	if v := verify.Capacities(net, prob.Network); len(v) > 0 {
		return "capacity: " + v[0].String()
	}
	if v := verify.Semantics(net, prob.Routing, prob.Policies, verify.Config{}); len(v) > 0 {
		return fmt.Sprintf("semantics: %d violations, first %s", len(v), v[0])
	}
	return ""
}

// selfTest tampers with a clean merging-off answer twice (one rule's
// switches dropped; total_rules off by one) and reports an error
// unless the checker refuses both.
func (c *checker) selfTest(outcomes []outcome) error {
	for i, o := range outcomes {
		if o.failed || o.status != "optimal" {
			continue
		}
		if _, merging := c.instance(i); merging {
			continue
		}
		var pl daemon.Placement
		if err := json.Unmarshal(o.placement, &pl); err != nil {
			return err
		}
		dropped, ok := dropFirstRule(pl)
		if !ok {
			return fmt.Errorf("self-test: answer %d places no rule", i)
		}
		offByOne := pl
		offByOne.TotalRules++
		for _, t := range []struct {
			name string
			pl   daemon.Placement
		}{{"rule switches dropped", dropped}, {"total_rules off by one", offByOne}} {
			raw, err := json.Marshal(t.pl)
			if err != nil {
				return err
			}
			body, err := json.Marshal(wireAnswer{Path: o.path, Placement: raw})
			if err != nil {
				return err
			}
			if got := c.check(i, answer{code: http.StatusOK, body: body}); !got.wrong {
				return fmt.Errorf("self-test: tampered answer (%s) passed the checks", t.name)
			}
		}
		return nil
	}
	return fmt.Errorf("self-test: no clean merging-off answer to tamper with")
}

// dropFirstRule returns a copy of pl with the first placed rule's
// switches removed.
func dropFirstRule(pl daemon.Placement) (daemon.Placement, bool) {
	out := pl
	out.Assign = append([][][]int(nil), pl.Assign...)
	for pi := range out.Assign {
		for ri, sws := range out.Assign[pi] {
			if len(sws) > 0 {
				out.Assign[pi] = append([][]int(nil), out.Assign[pi]...)
				out.Assign[pi][ri] = []int{}
				return out, true
			}
		}
	}
	return pl, false
}
