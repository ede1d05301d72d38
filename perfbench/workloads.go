package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"rulefit/internal/bench"
	"rulefit/internal/core"
	"rulefit/internal/daemon"
	"rulefit/internal/randgen"
	"rulefit/internal/spec"
)

// Workload names.
const (
	fig7Tight    = "fig7-tight"
	mergeGrid    = "merge-grid"
	sessionDelta = "session-delta"
)

// item is one /v1/place request of a fixed item set.
type item struct {
	name    string
	merging bool
	prob    *core.Problem // the instance as the daemon builds it from the spec
	problem []byte        // spec JSON
	body    []byte        // POST /v1/place body
	opts    daemon.RequestOptions
}

// edit is one POST /v1/session/{id}/delta request.
type edit struct {
	kind   string // add, remove, flip, capacity or revert
	deltas []spec.Delta
	body   []byte
}

// plan is everything one run replays, generated from the seed before
// any daemon starts.
//
// fig7-tight and merge-grid replay item sets pinned by the paper's
// grids, whose answers are committed in reference.json; the seed only
// permutes the items within each pass. session-delta replays a seeded
// stream of edits against one fixed instance.
type plan struct {
	workload string

	items  []*item
	passes int
	order  []int // timed sequence of item indices
	warmup *item

	base       *spec.Problem
	sessOpts   daemon.RequestOptions
	createBody []byte
	warmEdits  []edit
	edits      []edit
}

// timed returns the number of timed operations.
func (p *plan) timed() int {
	if p.workload == sessionDelta {
		return len(p.edits)
	}
	return len(p.order)
}

// body is the request body of the i-th timed operation.
func (p *plan) body(i int) []byte {
	if p.workload == sessionDelta {
		return p.edits[i].body
	}
	return p.items[p.order[i]].body
}

// label names the i-th timed operation.
func (p *plan) label(i int) string {
	if p.workload == sessionDelta {
		return fmt.Sprintf("edit%d/%s", i, p.edits[i].kind)
	}
	return p.items[p.order[i]].name
}

// Work per run is fixed by --seconds through these nominal costs,
// never by a clock: a fig7-tight pass takes about 35 s, a merge-grid
// pass about 3 s, and a session edit about 25 ms.
const (
	fig7PassSeconds  = 35
	mergePassSeconds = 3
	editsPerSecond   = 40
	warmEditCount    = 4
)

func newPlan(workload string, seed int64, seconds int) (*plan, error) {
	p := &plan{workload: workload}
	rng := rand.New(rand.NewSource(seed))
	var err error
	switch workload {
	case fig7Tight:
		p.items, err = fig7Items()
		if err == nil {
			p.warmup, err = newItem("c100/r5/s0", bench.Config{K: 4, Ingresses: 8, PathsPerIngress: 8,
				Rules: 5, Capacity: 100}, daemon.RequestOptions{TimeLimitSec: 10})
		}
		p.passes = max(1, seconds/fig7PassSeconds)
	case mergeGrid:
		// The cheapest cell is the untimed warm-up, so the 17 timed
		// cells are odd in number and the median sits inside one cell's
		// repeats rather than on the gap between two cells.
		p.items, err = mergeItems()
		for i, it := range p.items {
			if it.name == "m1/c10/off" {
				p.warmup, p.items = it, append(p.items[:i:i], p.items[i+1:]...)
				break
			}
		}
		p.passes = mergePasses(seconds)
	case sessionDelta:
		err = p.sessionInputs(rng, seconds*editsPerSecond)
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", workload, fig7Tight, mergeGrid, sessionDelta)
	}
	if err != nil {
		return nil, err
	}
	for pass := 0; pass < p.passes; pass++ {
		p.order = append(p.order, rng.Perm(len(p.items))...)
	}
	return p, nil
}

// mergePasses rounds seconds/mergePassSeconds down to a pass count
// whose tail order statistic (10 samples beyond it, 17 items per pass)
// falls inside one item's cluster of repeats rather than between two
// items.
func mergePasses(seconds int) int {
	want := max(1, (seconds+mergePassSeconds/2)/mergePassSeconds)
	best := 1
	for _, p := range []int{1, 3, 4, 7, 8} {
		if p <= want {
			best = p
		}
	}
	return best
}

// fig7Items is the Fig. 7 C=25 series of `experiments -exp 1`: k=4,
// 8 ingresses x 8 paths, 20/25/30 rules, seeds 0/101/202.
func fig7Items() ([]*item, error) {
	var items []*item
	for _, rules := range []int{20, 25, 30} {
		for _, s := range []int64{0, 101, 202} {
			it, err := newItem(fmt.Sprintf("c25/r%d/s%d", rules, s),
				bench.Config{K: 4, Ingresses: 8, PathsPerIngress: 8, Rules: rules, Capacity: 25, Seed: s},
				daemon.RequestOptions{TimeLimitSec: 10})
			if err != nil {
				return nil, err
			}
			items = append(items, it)
		}
	}
	return items, nil
}

// mergeConfig is one Table II row of `experiments -exp 3`: 8 rules
// plus m shared blacklist DROPs per policy, 4 paths per ingress.
func mergeConfig(m, capacity int) bench.Config {
	return bench.Config{K: 4, Ingresses: 8, PathsPerIngress: 4, Rules: 8, Capacity: capacity, Mergeable: m}
}

// mergeItems is Table II's small preset, rows m = 1-3, C in {8, 9, 10},
// merging off and on. Rows 4-6 cost 3-33 s per cell and are left out.
func mergeItems() ([]*item, error) {
	var items []*item
	for m := 1; m <= 3; m++ {
		for _, c := range []int{8, 9, 10} {
			for _, merging := range []bool{false, true} {
				mode := "off"
				if merging {
					mode = "merge"
				}
				it, err := newItem(fmt.Sprintf("m%d/c%d/%s", m, c, mode), mergeConfig(m, c),
					daemon.RequestOptions{Merging: merging, TimeLimitSec: 60})
				if err != nil {
					return nil, err
				}
				items = append(items, it)
			}
		}
	}
	return items, nil
}

func newItem(name string, cfg bench.Config, ro daemon.RequestOptions) (*item, error) {
	prob, err := bench.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", name, err)
	}
	sp := spec.FromCore(prob)
	problem, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(daemon.PlaceRequest{Problem: problem, Options: ro})
	if err != nil {
		return nil, err
	}
	built, err := sp.Build()
	if err != nil {
		return nil, fmt.Errorf("rebuilding %s: %w", name, err)
	}
	return &item{name: name, merging: ro.Merging, prob: built, problem: problem, body: body, opts: ro}, nil
}

// sessionInputs builds ruleload -delta's instance class (fat-tree k=4,
// 8 policies x 100 five-tuple rules, 2 paths per ingress, slack
// capacities) and the seeded edit stream replayed against it.
func (p *plan) sessionInputs(rng *rand.Rand, n int) error {
	inst, err := randgen.Generate(randgen.Config{
		Seed: 1, Topo: randgen.TopoFatTree, FatTreeK: 4, Ingresses: 8,
		PathsPerIngress: 2, RulesPerPolicy: 100, Capacity: randgen.CapSlack,
	})
	if err != nil {
		return err
	}
	p.base = spec.FromCore(inst.Problem)
	p.sessOpts = daemon.RequestOptions{TimeLimitSec: 10}
	problem, err := json.Marshal(p.base)
	if err != nil {
		return err
	}
	if p.createBody, err = json.Marshal(daemon.PlaceRequest{Problem: problem, Options: p.sessOpts}); err != nil {
		return err
	}
	edits, err := genEdits(p.base, warmEditCount+n, rng)
	if err != nil {
		return err
	}
	p.warmEdits, p.edits = edits[:warmEditCount], edits[warmEditCount:]
	return nil
}

// genEdits draws single-policy edits in blocks of ten, so that every
// seed replays the same mix: each block is a seeded order of seven rule
// edits, two of them reverted by the edit that follows, and one
// capacity raise. Rule edits (add, remove or flip one rule) go
// round-robin over the policies and cycle through the three kinds.
// Capacity raises go round-robin over the switches. A revert restores the instance of two edits back, which the
// session answers from its identity memo.
func genEdits(base *spec.Problem, n int, rng *rand.Rand) ([]edit, error) {
	cur := base.Clone()
	out := make([]edit, 0, n+10)
	push := func(e edit) error {
		if err := cur.ApplyAll(e.deltas); err != nil {
			return fmt.Errorf("edit %d (%s): %w", len(out), e.kind, err)
		}
		body, err := json.Marshal(daemon.DeltaRequest{Deltas: e.deltas})
		if err != nil {
			return err
		}
		e.body = body
		out = append(out, e)
		return nil
	}
	switches, policies := len(cur.Topology.SwitchList), len(cur.Policies)
	ruleEdits, capEdits, kindOffset := 0, rng.Intn(switches), rng.Intn(3)
	for len(out) < n {
		units := []string{"rule+revert", "rule+revert", "capacity", "rule", "rule", "rule", "rule", "rule"}
		rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
		for _, u := range units {
			var e edit
			var inverse []spec.Delta
			if u == "capacity" {
				sw := cur.Topology.SwitchList[capEdits%switches]
				capEdits++
				e = edit{kind: "capacity", deltas: []spec.Delta{{Op: spec.OpSetCapacity, Switch: sw.ID, Capacity: sw.Capacity + 1}}}
			} else {
				kind := [...]string{"add", "remove", "flip"}[(ruleEdits/policies+kindOffset)%3]
				pi := ruleEdits % policies
				e, inverse = ruleEdit(cur.Policies[pi], base.Policies[pi], kind, rng)
				ruleEdits++
			}
			if err := push(e); err != nil {
				return nil, err
			}
			if u == "rule+revert" {
				if err := push(edit{kind: "revert", deltas: inverse}); err != nil {
					return nil, err
				}
			}
		}
	}
	return out[:n], nil
}

// ruleEdit adds, removes or flips one rule of pol and returns the edit
// with its inverse. Each kind first undoes its own earlier edit where
// one is left (re-add a removed base rule, remove an added rule, flip a
// flipped rule back), so pol never drifts more than a rule or two from
// base and every seed's stream costs the same. Remove and flip are
// undone by restoring the whole rule list, which keeps the rule order
// and so the canonical instance.
func ruleEdit(pol, base spec.Policy, kind string, rng *rand.Rand) (edit, []spec.Delta) {
	cur := map[int]spec.Rule{}
	top := 0
	for _, r := range pol.Rules {
		cur[r.Priority] = r
		top = max(top, r.Priority)
	}
	baseTop := 0
	var removed, flipped []spec.Rule
	for _, r := range base.Rules {
		baseTop = max(baseTop, r.Priority)
		if c, ok := cur[r.Priority]; !ok {
			removed = append(removed, r)
		} else if c.Action != r.Action {
			flipped = append(flipped, c)
		}
	}
	restore := []spec.Delta{{Op: spec.OpUpdatePolicy, Ingress: pol.Ingress, Rules: append([]spec.Rule(nil), pol.Rules...)}}
	switch kind {
	case "add":
		add := spec.Rule{}
		if len(removed) > 0 {
			add = removed[0]
		} else {
			// A sibling of an existing rule: its pattern with one fixed
			// bit flipped and its action, at a new top priority.
			r := pol.Rules[rng.Intn(len(pol.Rules))]
			add = spec.Rule{Pattern: siblingPattern(r.Pattern, rng), Action: r.Action, Priority: top + 1}
		}
		return edit{kind: kind, deltas: []spec.Delta{{Op: spec.OpAddRule, Ingress: pol.Ingress, Rule: &add}}},
			[]spec.Delta{{Op: spec.OpRemoveRule, Ingress: pol.Ingress, Priority: add.Priority}}
	case "remove":
		prio := top
		if top <= baseTop {
			prio = pol.Rules[rng.Intn(len(pol.Rules))].Priority
		}
		return edit{kind: kind, deltas: []spec.Delta{{Op: spec.OpRemoveRule, Ingress: pol.Ingress, Priority: prio}}}, restore
	default:
		prio := pol.Rules[rng.Intn(len(pol.Rules))].Priority
		if len(flipped) > 0 {
			prio = flipped[0].Priority
		}
		rules := append([]spec.Rule(nil), pol.Rules...)
		for i := range rules {
			if rules[i].Priority == prio {
				if rules[i].Action == "drop" {
					rules[i].Action = "permit"
				} else {
					rules[i].Action = "drop"
				}
			}
		}
		return edit{kind: kind, deltas: []spec.Delta{{Op: spec.OpUpdatePolicy, Ingress: pol.Ingress, Rules: rules}}}, restore
	}
}

// siblingPattern flips one fixed bit of a ternary pattern (or fixes one
// bit of an all-wildcard pattern).
func siblingPattern(pattern string, rng *rand.Rand) string {
	pat := []byte(pattern)
	var fixed []int
	for i, c := range pat {
		if c != '*' {
			fixed = append(fixed, i)
		}
	}
	if len(fixed) == 0 {
		pat[rng.Intn(len(pat))] = '0'
	} else {
		pat[fixed[rng.Intn(len(fixed))]] ^= '0' ^ '1'
	}
	return string(pat)
}
