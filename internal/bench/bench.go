// Package bench builds the synthetic workloads of the paper's evaluation
// (§V) and runs Experiments 1–5: fat-tree topologies, ClassBench-style
// policies per ingress, randomized shortest-path routing, and sweeps
// over rule counts, path counts, capacities, mergeable-rule counts, and
// incremental updates.
//
// Absolute runtimes are not comparable to the paper's CPLEX-on-Xeon
// numbers (the solvers here are built from scratch); the experiments
// reproduce the *shapes*: tightly-constrained instances are slowest,
// over- and under-constrained ones fast, merging turns infeasible cells
// feasible, and incremental updates run orders of magnitude faster than
// from-scratch solves. Default scales are reduced accordingly;
// cmd/experiments exposes larger scales.
package bench

import (
	"fmt"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/ilp"
	"rulefit/internal/policy"
	"rulefit/internal/routing"
	"rulefit/internal/topology"
)

// Config describes one workload instance.
type Config struct {
	// K is the fat-tree arity (even).
	K int
	// HostsPerEdge external ports per edge switch.
	HostsPerEdge int
	// Ingresses is the number of ingress ports carrying a policy.
	Ingresses int
	// PathsPerIngress routes per ingress (total paths = product).
	PathsPerIngress int
	// Rules per ingress policy.
	Rules int
	// Capacity per switch (uniform, as in the paper).
	Capacity int
	// Mergeable appends this many identical blacklist DROP rules to
	// every policy (Experiment 3).
	Mergeable int
	// Seed drives policy generation and routing tie-breaks.
	Seed int64
	// Parallel bounds how many workload instances a sweep solves
	// concurrently (<= 1 = sequential). Results are aggregated in input
	// order regardless, so Parallel changes only wall-clock time.
	Parallel int
	// Opts passes through solver options.
	Opts core.Options
}

// withDefaults fills unset fields with the reduced default scale.
func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 4
	}
	if c.HostsPerEdge == 0 {
		c.HostsPerEdge = 2
	}
	if c.Ingresses == 0 {
		c.Ingresses = 8
	}
	if c.PathsPerIngress == 0 {
		c.PathsPerIngress = 8
	}
	if c.Rules == 0 {
		c.Rules = 20
	}
	if c.Capacity == 0 {
		c.Capacity = 100
	}
	if c.Opts.TimeLimit == 0 {
		c.Opts.TimeLimit = 60 * time.Second
	}
	return c
}

// Build constructs the problem instance for a config.
func Build(cfg Config) (*core.Problem, error) {
	cfg = cfg.withDefaults()
	topo, err := topology.FatTree(cfg.K, cfg.Capacity, cfg.HostsPerEdge)
	if err != nil {
		return nil, err
	}
	pairs, err := routing.SpreadPairs(topo, cfg.Ingresses, cfg.PathsPerIngress, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rt, err := routing.BuildRouting(topo, pairs, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	var dstPool []uint32
	if cfg.Opts.PathSlicing {
		routing.AssignTrafficSlices(rt)
		// Target the egress prefixes so rules overlap the traffic
		// slices (otherwise slicing trivially removes every rule).
		for _, p := range topo.EgressPorts() {
			ip, _ := routing.EgressPrefix(p.ID)
			dstPool = append(dstPool, ip)
		}
	}
	var blacklist []policy.Rule
	if cfg.Mergeable > 0 {
		blacklist = policy.GenerateBlacklist(cfg.Mergeable, cfg.Seed+2)
	}
	var policies []*policy.Policy
	for _, in := range rt.Ingresses() {
		pol := policy.Generate(int(in), policy.GenConfig{NumRules: cfg.Rules, Seed: cfg.Seed, DstPool: dstPool})
		if len(blacklist) > 0 {
			pol = policy.WithBlacklist(pol, blacklist)
		}
		policies = append(policies, pol)
	}
	return &core.Problem{Network: topo, Routing: rt, Policies: policies}, nil
}

// Result is one measured placement run. It embeds the solver's
// ilp.Stats rather than core.Stats, whose SolveTime is wall clock:
// every field but Time is a deterministic function of the instance.
type Result struct {
	Status      core.Status
	TotalRules  int
	Time        time.Duration
	Variables   int
	Constraints int
	SolvePath   core.SolvePath
	ilp.Stats
}

// Run builds and solves one instance, measuring wall-clock solve time.
func Run(cfg Config) (Result, error) {
	prob, err := Build(cfg)
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	pl, err := core.Place(prob, cfg.Opts)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Status:      pl.Status,
		TotalRules:  pl.TotalRules,
		Time:        time.Since(start),
		Variables:   pl.Stats.Variables,
		Constraints: pl.Stats.Constraints,
		SolvePath:   pl.Stats.SolvePath,
		Stats:       pl.Stats.Stats,
	}, nil
}

// Point is one point of a runtime-vs-parameter figure, averaged over
// seeds with min/max variation (the paper's variation bars).
type Point struct {
	X        int // the swept parameter (rules, paths, capacity)
	Capacity int
	Mean     time.Duration
	Min, Max time.Duration
	// Statuses of the individual seed runs (feasibility can vary).
	Statuses []core.Status
	// Runs preserves the individual seed measurements, in seed order,
	// for machine-readable reports.
	Runs []Result
}

// Feasible reports whether all seed runs found a placement.
func (p Point) Feasible() bool {
	for _, s := range p.Statuses {
		if s == core.StatusInfeasible || s == core.StatusLimit {
			return false
		}
	}
	return true
}

// Experiment1 reproduces Figures 7–9: runtime vs rule count for two
// capacities at a fixed topology and path count. The full (capacity,
// ruleCount, seed) grid is solved with at most base.Parallel instances
// in flight.
func Experiment1(base Config, ruleCounts []int, capacities []int, seeds int) (map[int][]Point, error) {
	base = base.withDefaults()
	var cfgs []Config
	for _, c := range capacities {
		for _, r := range ruleCounts {
			for s := 0; s < seeds; s++ {
				cfg := base
				cfg.Rules = r
				cfg.Capacity = c
				cfg.Seed = base.Seed + int64(s)*101
				cfgs = append(cfgs, cfg)
			}
		}
	}
	results, err := runJobs(cfgs, base.Parallel, Run)
	if err != nil {
		return nil, err
	}
	out := make(map[int][]Point, len(capacities))
	i := 0
	for _, c := range capacities {
		var pts []Point
		for _, r := range ruleCounts {
			pts = append(pts, aggregate(r, c, results[i:i+seeds]))
			i += seeds
		}
		out[c] = pts
	}
	return out, nil
}

// Experiment2 reproduces Figure 10: runtime vs path count for two
// capacities at fixed rules, fanning the (capacity, paths) grid out
// across base.Parallel goroutines.
func Experiment2(base Config, pathCounts []int, capacities []int) (map[int][]Point, error) {
	base = base.withDefaults()
	var cfgs []Config
	for _, c := range capacities {
		for _, p := range pathCounts {
			cfg := base
			cfg.Capacity = c
			// Total paths = Ingresses * PathsPerIngress; sweep per-ingress.
			cfg.PathsPerIngress = p / cfg.Ingresses
			if cfg.PathsPerIngress < 1 {
				cfg.PathsPerIngress = 1
			}
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runJobs(cfgs, base.Parallel, Run)
	if err != nil {
		return nil, err
	}
	out := make(map[int][]Point, len(capacities))
	i := 0
	for _, c := range capacities {
		var pts []Point
		for _, p := range pathCounts {
			pts = append(pts, aggregate(p, c, results[i:i+1]))
			i++
		}
		out[c] = pts
	}
	return out, nil
}

// Table2Cell is one cell of Table II: total rules and duplication
// overhead, or infeasible.
type Table2Cell struct {
	MergeableRules int
	Capacity       int
	Merging        bool
	Infeasible     bool
	// Proven marks cells whose value the solver proved optimal (an
	// unproven cell is a time-limited incumbent, rendered with "*").
	Proven     bool
	TotalRules int
	// OverheadPct is 100*(B-A)/A where A is the no-duplication rule
	// count (every placed rule exactly once) and B the installed count.
	OverheadPct float64
	// BestBound and GapPct qualify unproven cells: how far the reported
	// incumbent could still be from optimal. GapPct is -1 when no bound
	// is available (e.g. infeasible cells), 0 for proven ones.
	BestBound float64
	GapPct    float64
}

// Experiment3 reproduces Table II: capacity vs duplication overhead with
// and without rule merging, sweeping the number of shared blacklist
// rules. The (mergeable, capacity, merging) grid fans out across
// base.Parallel goroutines.
func Experiment3(base Config, mergeCounts []int, capacities []int) ([]Table2Cell, error) {
	base = base.withDefaults()
	var cfgs []Config
	for _, mr := range mergeCounts {
		for _, c := range capacities {
			for _, merging := range []bool{false, true} {
				cfg := base
				cfg.Mergeable = mr
				cfg.Capacity = c
				cfg.Opts.Merging = merging
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return runJobs(cfgs, base.Parallel, runCell)
}

// runCell solves one Table II cell.
func runCell(cfg Config) (Table2Cell, error) {
	prob, err := Build(cfg)
	if err != nil {
		return Table2Cell{}, err
	}
	pl, err := core.Place(prob, cfg.Opts)
	if err != nil {
		return Table2Cell{}, err
	}
	cell := Table2Cell{MergeableRules: cfg.Mergeable, Capacity: cfg.Capacity, Merging: cfg.Opts.Merging, GapPct: -1}
	if pl.Status != core.StatusOptimal && pl.Status != core.StatusFeasible {
		cell.Infeasible = true
	} else {
		cell.Proven = pl.Status == core.StatusOptimal
		cell.TotalRules = pl.TotalRules
		if pl.Stats.Gap >= 0 {
			cell.BestBound = pl.Stats.BestBound
			cell.GapPct = 100 * pl.Stats.Gap
		}
		a := noDuplicationCount(pl)
		if a > 0 {
			cell.OverheadPct = 100 * float64(pl.TotalRules-a) / float64(a)
		}
	}
	return cell, nil
}

// noDuplicationCount is A in the paper's Table II: the number of rules
// if every placed rule appeared exactly once in the network.
func noDuplicationCount(pl *core.Placement) int {
	a := 0
	for pi := range pl.Assign {
		for ri := range pl.Assign[pi] {
			if len(pl.Assign[pi][ri]) > 0 {
				a++
			}
		}
	}
	return a
}

// Experiment4 reproduces Figure 11: runtime vs switch capacity at fixed
// topology, rules, and paths. The (capacity, seed) grid fans out across
// base.Parallel goroutines.
func Experiment4(base Config, capacities []int, seeds int) ([]Point, error) {
	base = base.withDefaults()
	var cfgs []Config
	for _, c := range capacities {
		for s := 0; s < seeds; s++ {
			cfg := base
			cfg.Capacity = c
			cfg.Seed = base.Seed + int64(s)*101
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runJobs(cfgs, base.Parallel, Run)
	if err != nil {
		return nil, err
	}
	var out []Point
	for i, c := range capacities {
		out = append(out, aggregate(c, c, results[i*seeds:(i+1)*seeds]))
	}
	return out, nil
}

// Exp5Result holds the incremental-deployment measurements of §V.
type Exp5Result struct {
	// BaseTime is the from-scratch solve establishing spare capacity.
	BaseTime  time.Duration
	BaseRules int
	// Install[i] is the time to add Installs[i] new single-path
	// policies into spare capacity, with feasibility.
	Installs       []int
	InstallTimes   []time.Duration
	InstallOK      []bool
	Reroutes       []int
	RerouteTimes   []time.Duration
	RerouteOK      []bool
	FromScratchCmp time.Duration
}

// Experiment5 reproduces the incremental study: place a base workload,
// extract spare capacity, then (a) install batches of new single-path
// policies and (b) re-place rerouted policies, measuring latency.
func Experiment5(base Config, installs []int, reroutes []int) (*Exp5Result, error) {
	base = base.withDefaults()
	prob, err := Build(base)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	pl, err := core.Place(prob, base.Opts)
	if err != nil {
		return nil, err
	}
	if pl.Status != core.StatusOptimal && pl.Status != core.StatusFeasible {
		return nil, fmt.Errorf("bench: base workload %v; loosen capacity", pl.Status)
	}
	res := &Exp5Result{BaseTime: time.Since(start), BaseRules: pl.TotalRules, Installs: installs, Reroutes: reroutes}

	egress := prob.Network.EgressPorts()
	ingressSwitches := prob.Network.IngressPorts()

	for _, n := range installs {
		// n new policies, each with a fresh ingress port and one path.
		topo2 := prob.Network.Clone()
		rt2 := routing.NewRouting()
		var pols []*policy.Policy
		nextPort := topology.PortID(10_000)
		for i := 0; i < n; i++ {
			at := ingressSwitches[i%len(ingressSwitches)]
			port := nextPort
			nextPort++
			if err := topo2.AddPort(topology.ExternalPort{ID: port, Switch: at.Switch, Ingress: true}); err != nil {
				return nil, err
			}
			// Pick an egress on a different switch so the install path
			// spans several hops (a one-switch path would need the whole
			// policy to fit on an already-loaded edge switch).
			out := egress[i%len(egress)]
			for j := 1; out.Switch == at.Switch && j < len(egress); j++ {
				out = egress[(i+j)%len(egress)]
			}
			sw, err := routing.ShortestPath(topo2, at.Switch, out.Switch)
			if err != nil {
				return nil, err
			}
			rt2.Add(routing.Path{Ingress: port, Egress: out.ID, Switches: sw})
			pols = append(pols, policy.Generate(int(port), policy.GenConfig{NumRules: base.Rules, Seed: base.Seed + int64(i) + 7}))
		}
		prob2 := &core.Problem{Network: topo2, Routing: rt2, Policies: pols}
		start := time.Now()
		inc, err := core.IncrementalAdd(prob2, pl, pols, rt2, base.Opts)
		if err != nil {
			return nil, err
		}
		res.InstallTimes = append(res.InstallTimes, time.Since(start))
		res.InstallOK = append(res.InstallOK, inc.Status == core.StatusOptimal || inc.Status == core.StatusFeasible)
	}

	for _, n := range reroutes {
		start := time.Now()
		ok := true
		for i := 0; i < n; i++ {
			pol := pl.Policies[i%len(pl.Policies)]
			in := topology.PortID(pol.Ingress)
			old := prob.Routing.Sets[in]
			// Flip the route set: drop the last path (or re-add it).
			newSet := &routing.PathSet{Ingress: in}
			if len(old.Paths) > 1 {
				newSet.Paths = old.Paths[:len(old.Paths)-1]
			} else {
				newSet.Paths = old.Paths
			}
			re, err := core.IncrementalReroute(prob, pl, pol.Ingress, newSet, base.Opts)
			if err != nil {
				return nil, err
			}
			if re.Status != core.StatusOptimal && re.Status != core.StatusFeasible {
				ok = false
			}
		}
		res.RerouteTimes = append(res.RerouteTimes, time.Since(start))
		res.RerouteOK = append(res.RerouteOK, ok)
	}

	// From-scratch comparison for context.
	start = time.Now()
	if _, err := core.Place(prob, base.Opts); err != nil {
		return nil, err
	}
	res.FromScratchCmp = time.Since(start)
	return res, nil
}

// BaselineResult compares the exact optimizer against the greedy
// heuristic and p-x-r replication (§V's closing comparison).
type BaselineResult struct {
	OptimalRules int
	GreedyRules  int
	GreedyOK     bool
	ReplicaRules int
	PXR          int
	OptimalTime  time.Duration
	GreedyTime   time.Duration
}

// Baselines runs the three strategies on the same workload.
func Baselines(base Config) (*BaselineResult, error) {
	base = base.withDefaults()
	prob, err := Build(base)
	if err != nil {
		return nil, err
	}
	out := &BaselineResult{PXR: core.PXRBound(prob)}

	start := time.Now()
	opt, err := core.Place(prob, base.Opts)
	if err != nil {
		return nil, err
	}
	out.OptimalTime = time.Since(start)
	if opt.Status == core.StatusOptimal || opt.Status == core.StatusFeasible {
		out.OptimalRules = opt.TotalRules
	}

	start = time.Now()
	gr, err := core.GreedyPlace(prob, base.Opts)
	if err != nil {
		return nil, err
	}
	out.GreedyTime = time.Since(start)
	out.GreedyOK = gr.Status == core.StatusFeasible
	if out.GreedyOK {
		out.GreedyRules = gr.TotalRules
	}

	repl, err := core.ReplicateEverywhere(prob, base.Opts)
	if err != nil {
		return nil, err
	}
	out.ReplicaRules = repl.TotalRules
	return out, nil
}
