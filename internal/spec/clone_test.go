package spec_test

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"rulefit/internal/invariant"
	"rulefit/internal/randgen"
	"rulefit/internal/spec"
)

// cloneCopies lists every slice, pointer and map field reachable from
// spec.Problem. Clone must copy each one; TestCloneShape fails when a
// spec type gains such a field until Clone copies it and it joins
// this list.
var cloneCopies = []string{
	"Topology.SwitchList", "Topology.Links", "Topology.Ports",
	"Routing.Pairs", "Routing.Paths", "Routing.Paths[].Switches",
	"Policies", "Policies[].Rules", "Policies[].Generate",
	"Monitors",
}

// randgenProblem flattens a randgen quick-suite instance to spec form.
func randgenProblem(t *testing.T, cfg randgen.Config) *spec.Problem {
	t.Helper()
	inst, err := randgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return spec.FromCore(inst.Problem)
}

// handBuilt covers what FromCore never produces: monitors, pairs, a
// generator, and empty non-nil slices next to nil ones.
func handBuilt() []*spec.Problem {
	full := &spec.Problem{
		Topology: spec.Topology{
			Type: "explicit", Capacity: 4,
			SwitchList: []spec.Switch{{ID: 1, Capacity: 3, Name: "a"}, {ID: 2, Capacity: 5}},
			Links:      [][2]int{{1, 2}},
			Ports:      []spec.Port{{ID: 10, Switch: 1, Ingress: true}, {ID: 11, Switch: 2, Egress: true}},
		},
		Routing: spec.Routing{
			Pairs: []spec.Pair{{In: 10, Out: 11}},
			Seed:  3,
			Paths: []spec.Path{
				{Ingress: 10, Egress: 11, Switches: []int{1, 2}, Traffic: "1*"},
				{Ingress: 10, Egress: 11, Switches: []int{}},
				{Ingress: 10, Egress: 11},
			},
			TrafficSlices: true,
		},
		Policies: []spec.Policy{
			{
				Ingress: 10,
				Rules: []spec.Rule{
					{Pattern: "1*", Action: "drop", Priority: 2},
					{SrcCIDR: "10.0.0.0/8", Proto: "tcp", DstPort: 80, Action: "permit", Priority: 1},
				},
				Generate: &spec.Gen{NumRules: 4, DropFrac: 0.5, Seed: 9},
			},
			{Ingress: 11, Rules: []spec.Rule{}},
		},
		Monitors: []spec.Monitor{{Switch: 2, Pattern: "0*"}, {Switch: 1, SrcCIDR: "10.0.0.0/8"}},
	}
	empty := &spec.Problem{
		Topology: spec.Topology{Type: "explicit", SwitchList: []spec.Switch{}, Links: [][2]int{}, Ports: []spec.Port{}},
		Routing:  spec.Routing{Pairs: []spec.Pair{}, Paths: []spec.Path{}},
		Policies: []spec.Policy{},
		Monitors: []spec.Monitor{},
	}
	return []*spec.Problem{full, empty, {}}
}

// cloneCases is every problem the clone tests run on: randgen seeds
// 1–30 through FromCore, then the hand-built ones.
func cloneCases(t *testing.T) []*spec.Problem {
	var out []*spec.Problem
	for seed := int64(1); seed <= 30; seed++ {
		out = append(out, randgenProblem(t, randgen.FromSeed(seed)))
	}
	return append(out, handBuilt()...)
}

// TestCloneCanonical pins that a clone renders the bytes of its source
// (the session memo keys by them) and keeps nil and empty apart.
func TestCloneCanonical(t *testing.T) {
	for i, p := range cloneCases(t) {
		c := p.Clone()
		if !bytes.Equal(c.Canonical(), p.Canonical()) {
			t.Fatalf("case %d: clone renders\n%s\nwant\n%s", i, c.Canonical(), p.Canonical())
		}
		if !reflect.DeepEqual(c, p) {
			t.Fatalf("case %d: clone differs from its source (nil and empty slices must stay apart)", i)
		}
	}
}

// everyOp returns one delta of each op kind that applies, in order, to
// an explicit problem with at least one policy of two or more rules.
func everyOp(p *spec.Problem) []spec.Delta {
	pol := p.Policies[0]
	for _, cand := range p.Policies {
		if len(cand.Rules) >= 2 {
			pol = cand
			break
		}
	}
	pattern := pol.Rules[0].Pattern
	newID := 0
	for _, sw := range p.Topology.SwitchList {
		newID = max(newID, sw.ID+1)
	}
	sw := p.Topology.SwitchList[0]
	path := p.Routing.Paths[0]
	link := [2]int{newID, sw.ID}
	return []spec.Delta{
		{Op: spec.OpAddRule, Ingress: pol.Ingress, Rule: &spec.Rule{Pattern: pattern, Action: "drop", Priority: 1 << 20}},
		{Op: spec.OpRemoveRule, Ingress: pol.Ingress, Priority: pol.Rules[0].Priority},
		{Op: spec.OpUpdatePolicy, Ingress: p.Policies[len(p.Policies)-1].Ingress,
			Rules: []spec.Rule{{Pattern: p.Policies[len(p.Policies)-1].Rules[0].Pattern, Action: "permit", Priority: 5}}},
		{Op: spec.OpSetCapacity, Switch: sw.ID, Capacity: sw.Capacity + 1},
		{Op: spec.OpSetPaths, Ingress: path.Ingress, Paths: []spec.Path{{
			Ingress: path.Ingress, Egress: path.Egress, Switches: slices.Clone(path.Switches),
		}}},
		{Op: spec.OpAddSwitch, Switch: newID, Capacity: 2},
		{Op: spec.OpAddLink, Link: &link},
		{Op: spec.OpRemoveLink, Link: &link},
		{Op: spec.OpRemoveSwitch, Switch: newID},
	}
}

// scribble overwrites every value reachable from v through struct
// fields, slice and array elements and pointers.
func scribble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			scribble(v.Elem())
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(^v.Int())
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		panic("scribble: unhandled kind " + v.Kind().String())
	}
}

// TestCloneIsDeep edits clones and checks the source never moves: one
// delta of every op kind, then an overwrite of everything reachable.
func TestCloneIsDeep(t *testing.T) {
	for i, p := range cloneCases(t) {
		before := p.Canonical()
		if p.ExplicitOnly() == nil {
			c := p.Clone()
			if err := c.ApplyAll(everyOp(c)); err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			if !bytes.Equal(p.Canonical(), before) {
				t.Fatalf("case %d: deltas applied to a clone changed its source", i)
			}
		}
		c := p.Clone()
		scribble(reflect.ValueOf(c).Elem())
		if !bytes.Equal(p.Canonical(), before) {
			t.Fatalf("case %d: overwriting a clone changed its source", i)
		}
	}
}

// TestApplyCopyOnWrite applies randgen delta streams on seeds 1–50,
// in batches of one and two deltas and then one delta of every op
// kind, each batch to a shallow copy of the problem before it, as a
// session edit does. No problem of the chain may move: Apply must
// never write into a slice its receiver shares with its source.
func TestApplyCopyOnWrite(t *testing.T) {
	ops := map[string]int{}
	for seed := int64(1); seed <= 50; seed++ {
		cur := randgenProblem(t, randgen.FromSeed(seed))
		steps, err := randgen.GenerateDeltas(cur, 12, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var batches [][]spec.Delta
		for i := 0; i < len(steps); i += 1 + i%2 {
			batches = append(batches, steps[i:min(i+1+i%2, len(steps))])
		}
		chain := []*spec.Problem{cur}
		canon := [][]byte{cur.Canonical()}
		for i := 0; i <= len(batches); i++ {
			batch := everyOp(cur)
			if i < len(batches) {
				batch = batches[i]
			}
			next := *cur
			if err := next.ApplyAll(batch); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, i, err)
			}
			for _, d := range batch {
				ops[d.Op]++
			}
			for j, p := range chain {
				if !bytes.Equal(p.Canonical(), canon[j]) {
					t.Fatalf("seed %d batch %d %v: applying to a shallow copy changed problem %d of the chain", seed, i, batch, j)
				}
			}
			cur = &next
			chain, canon = append(chain, cur), append(canon, cur.Canonical())
		}
	}
	for _, op := range []string{spec.OpAddRule, spec.OpRemoveRule, spec.OpUpdatePolicy, spec.OpSetCapacity,
		spec.OpSetPaths, spec.OpAddSwitch, spec.OpRemoveSwitch, spec.OpAddLink, spec.OpRemoveLink} {
		if ops[op] == 0 {
			t.Errorf("no batch applied %s (op counts: %v)", op, ops)
		}
	}
}

// referenceFields appends the path of every slice, pointer, map,
// interface, channel or function type reachable from t.
func referenceFields(t reflect.Type, path string, out *[]string) {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			name := t.Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			referenceFields(t.Field(i).Type, name, out)
		}
	case reflect.Array:
		referenceFields(t.Elem(), path+"[]", out)
	case reflect.Slice, reflect.Map:
		*out = append(*out, path)
		referenceFields(t.Elem(), path+"[]", out)
	case reflect.Pointer:
		*out = append(*out, path)
		referenceFields(t.Elem(), path, out)
	case reflect.Interface, reflect.Chan, reflect.Func:
		*out = append(*out, path)
	}
}

// TestCloneShape guards Clone's field list against the spec types.
func TestCloneShape(t *testing.T) {
	var got []string
	referenceFields(reflect.TypeOf(spec.Problem{}), "", &got)
	if !slices.Equal(got, cloneCopies) {
		t.Fatalf("spec.Problem's reference fields are %q, Clone copies %q: copy the new field in Clone and list it here", got, cloneCopies)
	}
}

// copiedSlices counts the non-empty slices and non-nil pointers
// reachable from v: what a deep copy must allocate.
func copiedSlices(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += copiedSlices(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() > 0 {
			n++
		}
		for i := 0; i < v.Len(); i++ {
			n += copiedSlices(v.Index(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			n += 1 + copiedSlices(v.Elem())
		}
	}
	return n
}

var cloneSink *spec.Problem

// sessionConfig is perfbench's session-delta instance class: fat-tree
// k=4, 8 policies × 100 five-tuple rules, 2 paths per ingress, slack
// capacities.
var sessionConfig = randgen.Config{
	Seed: 1, Topo: randgen.TopoFatTree, FatTreeK: 4, Ingresses: 8,
	PathsPerIngress: 2, RulesPerPolicy: 100, Capacity: randgen.CapSlack,
}

// TestCloneAllocs keeps serialization off the session edit path: on
// perfbench's session-delta instance class (fat-tree k=4, 8 policies ×
// 100 five-tuple rules, 2 paths per ingress), Clone allocates at most
// once per copied slice, plus once for the Problem.
func TestCloneAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("under rulefitdebug Clone renders itself and its source to check the copy")
	}
	p := randgenProblem(t, sessionConfig)
	limit := float64(copiedSlices(reflect.ValueOf(p).Elem()) + 1)
	if got := testing.AllocsPerRun(20, func() { cloneSink = p.Clone() }); got > limit {
		t.Fatalf("Clone allocates %.0f times, want at most %.0f", got, limit)
	}
}
