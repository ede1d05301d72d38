package load

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"time"

	"rulefit/internal/daemon"
	"rulefit/internal/randgen"
	"rulefit/internal/spec"
)

// Delta-replay mode: the SLO measurement behind the stateful session
// layer. One seeded instance is loaded into a session, then Steps
// single-rule deltas are applied one at a time; after every delta the
// harness ALSO issues a cold /v1/place of the fully-updated instance
// and checks the two placements hash identically (the byte-identity
// contract, measured end-to-end rather than assumed). The report's
// Delta record separates the warm and cold latency distributions, so
// the cold/warm p99 ratio is a committed, re-runnable number that
// ruleload -delta-min-speedup can gate on.
//
// The instance class defaults to the decomposable regime (merging
// off, total-rules objective, multi-policy fat-tree with slack
// capacities) because that is where the session's per-policy fragment
// cache applies; the class is recorded in the report so diffs refuse
// cross-class comparisons via the workload fingerprint.

// DeltaOpts tunes one delta replay.
type DeltaOpts struct {
	// Steps is the number of single-rule deltas applied (default 20).
	Steps int
	// Ingresses, RulesPerPolicy, and FatTreeK pick the instance class
	// (defaults 8, 100, 4 — the committed SLO class).
	Ingresses      int
	RulesPerPolicy int
	FatTreeK       int
}

func (o DeltaOpts) withDefaults() DeltaOpts {
	if o.Steps <= 0 {
		o.Steps = 20
	}
	if o.Ingresses <= 0 {
		o.Ingresses = 8
	}
	if o.RulesPerPolicy <= 0 {
		o.RulesPerPolicy = 100
	}
	if o.FatTreeK <= 0 {
		o.FatTreeK = 4
	}
	return o
}

// class names the instance class for the report.
func (o DeltaOpts) class() string {
	return fmt.Sprintf("fattree-k%d-%dx%d-5tuple", o.FatTreeK, o.Ingresses, o.RulesPerPolicy)
}

// DeltaRecord is the delta-replay summary attached to the report.
type DeltaRecord struct {
	// Class is the instance class the replay measured.
	Class string `json:"class"`
	Seed  int64  `json:"seed"`
	Steps int    `json:"steps"`
	// Paths counts answers per fallback-ladder level ("identity",
	// "warm", "cold").
	Paths map[string]int `json:"paths"`
	// Mismatched counts steps whose warm placement hash differed from
	// the cold re-solve of the same instance — any nonzero value is a
	// byte-identity violation and fails the run.
	Mismatched int `json:"mismatched"`
	// Warm/Cold percentiles are exact order statistics over the per-step
	// client latencies (ms); observational.
	WarmP50MS float64 `json:"warm_p50_ms"`
	WarmP99MS float64 `json:"warm_p99_ms"`
	ColdP50MS float64 `json:"cold_p50_ms"`
	ColdP99MS float64 `json:"cold_p99_ms"`
	// SpeedupP50/P99 are cold/warm percentile ratios (> 1 means the
	// session path is faster).
	SpeedupP50 float64 `json:"speedup_p50"`
	SpeedupP99 float64 `json:"speedup_p99"`
}

// DeltaStep is one measured step: the warm session answer and the
// cold reference solve of the identical instance.
type DeltaStep struct {
	Step int
	// Path is the session's fallback-ladder level for this answer.
	Path string
	Warm Result
	Cold Result
}

// RunDelta measures warm single-rule deltas against cold re-solves of
// the same instance on one target and assembles the delta report.
func RunDelta(ctx context.Context, cfg Config, opts DeltaOpts, target Target) (*Report, error) {
	cfg = cfg.withDefaults()
	opts = opts.withDefaults()

	inst, err := randgen.Generate(randgen.Config{
		Seed:            cfg.Seed,
		Topo:            randgen.TopoFatTree,
		FatTreeK:        opts.FatTreeK,
		Ingresses:       opts.Ingresses,
		PathsPerIngress: 2,
		RulesPerPolicy:  opts.RulesPerPolicy,
		Capacity:        randgen.CapSlack,
	})
	if err != nil {
		return nil, fmt.Errorf("load: generating delta instance (seed %d): %w", cfg.Seed, err)
	}
	cur := spec.FromCore(inst.Problem)
	reqOpts := daemon.RequestOptions{Merging: cfg.Merging, TimeLimitSec: cfg.TimeLimitSec}
	item, err := deltaWorkItem(cur, reqOpts, 0, cfg.Seed)
	if err != nil {
		return nil, err
	}

	fp := fnv.New64a()
	fp.Write(item.Body)

	start := time.Now()
	id, createAns, err := target.Create(ctx, item)
	if err != nil {
		return nil, fmt.Errorf("load: session create: %w", err)
	}
	if cfg.Status != nil {
		fmt.Fprintf(cfg.Status, "session %s created in %.1fms (path=%s, class=%s)\n",
			id, createAns.WallMS, createAns.Path, opts.class())
	}

	steps := make([]DeltaStep, 0, opts.Steps)
	for i := 0; i < opts.Steps && ctx.Err() == nil; i++ {
		d := singleRuleDelta(cur, i)
		dJSON, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		fp.Write(dJSON)

		warm, err := target.Delta(ctx, id, []spec.Delta{d})
		if err != nil {
			return nil, fmt.Errorf("load: delta step %d: %w", i, err)
		}
		if err := cur.Apply(d); err != nil {
			return nil, fmt.Errorf("load: applying delta step %d locally: %w", i, err)
		}
		coldItem, err := deltaWorkItem(cur, reqOpts, 2*i+1, cfg.Seed)
		if err != nil {
			return nil, err
		}
		coldRes := target.Place(ctx, coldItem)
		step := DeltaStep{Step: i, Path: warm.Path, Warm: warm.Result, Cold: coldRes}
		steps = append(steps, step)
		if cfg.Status != nil {
			match := "ok"
			if step.Warm.PlacementHash != step.Cold.PlacementHash {
				match = "MISMATCH"
			}
			fmt.Fprintf(cfg.Status, "step %-3d path=%-8s warm=%7.1fms cold=%7.1fms identity=%s\n",
				i, warm.Path, warm.WallMS, coldRes.WallMS, match)
		}
	}
	elapsed := time.Since(start)

	rep := newReport(cfg, &Workload{Seed: cfg.Seed, Fingerprint: fmt.Sprintf("%016x", fp.Sum64())},
		"delta", targetOf(target))
	rep.Config.Requests = opts.Steps
	rep.Workload.Requests = opts.Steps
	finishDeltaReport(rep, cfg, opts, steps, elapsed)
	return rep, nil
}

// singleRuleDelta derives step i's add_rule: a deterministic
// low-priority drop appended to policy i mod P. Priorities stack above
// the instance's current maximum so each step's delta stays valid
// against the evolving instance.
func singleRuleDelta(cur *spec.Problem, i int) spec.Delta {
	pol := cur.Policies[i%len(cur.Policies)]
	maxPrio := 0
	for _, r := range pol.Rules {
		if r.Priority > maxPrio {
			maxPrio = r.Priority
		}
	}
	pattern := []byte(strings.Repeat("*", len(pol.Rules[0].Pattern)))
	pattern[i%len(pattern)] = '1'
	return spec.Delta{
		Op:      spec.OpAddRule,
		Ingress: pol.Ingress,
		Rule:    &spec.Rule{Pattern: string(pattern), Action: "drop", Priority: maxPrio + 1},
	}
}

// deltaWorkItem wraps the current instance as a wire request.
func deltaWorkItem(cur *spec.Problem, reqOpts daemon.RequestOptions, index int, seed int64) (WorkItem, error) {
	probJSON, err := json.Marshal(cur)
	if err != nil {
		return WorkItem{}, err
	}
	body, err := json.Marshal(daemon.PlaceRequest{Problem: probJSON, Options: reqOpts})
	if err != nil {
		return WorkItem{}, err
	}
	return WorkItem{Index: index, Seed: seed, Body: body}, nil
}

// finishDeltaReport folds the measured steps into the report: paired
// warm/cold request records (warm at index 2k, cold at 2k+1, strata
// "delta-warm"/"delta-cold") plus the Delta summary.
func finishDeltaReport(rep *Report, cfg Config, opts DeltaOpts, steps []DeltaStep, elapsed time.Duration) {
	dr := &DeltaRecord{
		Class: opts.class(),
		Seed:  cfg.Seed,
		Steps: len(steps),
		Paths: map[string]int{},
	}
	warmItem := WorkItem{Seed: cfg.Seed, Stratum: "delta-warm"}
	coldItem := WorkItem{Seed: cfg.Seed, Stratum: "delta-cold"}
	all := newTally()
	var warmMS, coldMS []float64
	for _, st := range steps {
		dr.Paths[st.Path]++
		if st.Warm.PlacementHash == "" || st.Warm.PlacementHash != st.Cold.PlacementHash {
			dr.Mismatched++
		}
		warmMS = append(warmMS, st.Warm.WallMS)
		coldMS = append(coldMS, st.Cold.WallMS)
		all.record(st.Warm)
		all.record(st.Cold)
		rep.Requests = append(rep.Requests,
			requestRecord(2*st.Step, warmItem, st.Warm),
			requestRecord(2*st.Step+1, coldItem, st.Cold))
	}
	dr.WarmP50MS, dr.WarmP99MS = exactQuantile(warmMS, 0.50), exactQuantile(warmMS, 0.99)
	dr.ColdP50MS, dr.ColdP99MS = exactQuantile(coldMS, 0.50), exactQuantile(coldMS, 0.99)
	if dr.WarmP50MS > 0 {
		dr.SpeedupP50 = dr.ColdP50MS / dr.WarmP50MS
	}
	if dr.WarmP99MS > 0 {
		dr.SpeedupP99 = dr.ColdP99MS / dr.WarmP99MS
	}
	rep.Delta = dr
	all.fill(rep, elapsed)
	rep.Strata = strata(rep.Requests)
}

// exactQuantile is the nearest-rank order statistic, the ⌈p·n⌉-th
// smallest of the n samples (the per-step sample is small, so
// histogram bucketing would blur the SLO ratio).
func exactQuantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	return s[max(rank, 1)-1]
}
