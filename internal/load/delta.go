package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"rulefit/internal/daemon"
	"rulefit/internal/obs"
	"rulefit/internal/randgen"
	"rulefit/internal/spec"
	"rulefit/internal/state"
)

// Delta-replay mode: the SLO measurement behind the stateful session
// layer. One seeded instance is loaded into a session, then Steps
// single-rule deltas are applied one at a time; after every delta the
// harness ALSO issues a cold /v1/place of the fully-updated instance
// and checks the two placements hash identically (the byte-identity
// contract, measured end-to-end rather than assumed). The report's
// Delta record separates the warm and cold latency distributions so
// the "single-rule delta p99 at least 3x below from-scratch p99"
// acceptance bar is a committed, re-runnable number.
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

// SessionDriver issues session-API operations; HTTP and in-process
// implementations fill the same Result fields as Placer, so delta
// reports from both targets diff against each other.
type SessionDriver interface {
	// Create opens a session for item and returns its ID plus the
	// initial (cold) answer.
	Create(ctx context.Context, item WorkItem) (string, DeltaAnswer, error)
	// Delta applies one delta batch to the session.
	Delta(ctx context.Context, id string, deltas []spec.Delta) (DeltaAnswer, error)
}

// DeltaAnswer is one session answer: the shared Result fields plus
// the session path that produced it.
type DeltaAnswer struct {
	Result
	Path string
}

// RunDelta measures warm single-rule deltas against cold re-solves
// and assembles the delta report. The cold placer must target the
// same backend as the session driver for the latency comparison to
// mean anything; the byte-identity check holds regardless.
func RunDelta(ctx context.Context, cfg Config, opts DeltaOpts, sd SessionDriver, cold Placer) (*Report, error) {
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
	id, createAns, err := sd.Create(ctx, item)
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

		warm, err := sd.Delta(ctx, id, []spec.Delta{d})
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
		coldRes := cold.Place(ctx, coldItem)
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
		"delta", targetOf(cold))
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
	//lint:detsource measured run length is the point of this field
	rep.ElapsedSec = elapsed.Seconds()
	if rep.ElapsedSec > 0 {
		rep.AchievedRPS = float64(2*len(steps)) / rep.ElapsedSec
	}

	dr := &DeltaRecord{
		Class: opts.class(),
		Seed:  cfg.Seed,
		Steps: len(steps),
		Paths: map[string]int{},
	}
	var warmMS, coldMS []float64
	hist := obs.NewLabeledHistogram(latencyBuckets)
	all := obs.NewHistogram(latencyBuckets)
	record := func(index int, stratum string, res Result) {
		rep.Total++
		switch {
		case res.Code == 200:
			rep.OK++
		case res.Status == "shed":
			rep.Shed++
		default:
			rep.Errors++
		}
		hist.Observe(stratum, res.WallMS/1e3)
		all.Observe(res.WallMS / 1e3)
		rep.Requests = append(rep.Requests, RequestRecord{
			Index:   index,
			Seed:    cfg.Seed,
			Stratum: stratum,
			TraceID: res.TraceID,
			Code:    res.Code,
			Status:  res.Status,
			//lint:detsource measured latency is the point of this field
			WallMS:        res.WallMS,
			PlacementHash: res.PlacementHash,
			Phases:        res.Phases,
			Error:         res.Err,
		})
	}
	for _, st := range steps {
		dr.Paths[st.Path]++
		if st.Warm.PlacementHash == "" || st.Warm.PlacementHash != st.Cold.PlacementHash {
			dr.Mismatched++
		}
		warmMS = append(warmMS, st.Warm.WallMS)
		coldMS = append(coldMS, st.Cold.WallMS)
		record(2*st.Step, "delta-warm", st.Warm)
		record(2*st.Step+1, "delta-cold", st.Cold)
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

	snap := all.Snapshot()
	rep.Latency = snap
	rep.P50MS = snap.Quantile(0.50) * 1e3
	rep.P90MS = snap.Quantile(0.90) * 1e3
	rep.P99MS = snap.Quantile(0.99) * 1e3
	rep.P999MS = snap.Quantile(0.999) * 1e3
	counts := map[string]int{"delta-warm": len(steps), "delta-cold": len(steps)}
	for _, member := range hist.Snapshot() {
		rep.Strata = append(rep.Strata, StratumRecord{
			Stratum:  member.Label,
			Requests: counts[member.Label],
			Latency:  member.Hist,
		})
	}
}

// exactQuantile is the nearest-rank order statistic (the per-step
// sample is small, so histogram bucketing would blur the SLO ratio).
func exactQuantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(p*float64(len(s)-1))]
}

// httpSessionDriver drives a live daemon's session API.
type httpSessionDriver struct {
	base   string
	client *http.Client
}

// NewHTTPSessionDriver returns a session driver for a live daemon
// (client nil = http.DefaultClient).
func NewHTTPSessionDriver(base string, client *http.Client) SessionDriver {
	if client == nil {
		client = http.DefaultClient
	}
	return &httpSessionDriver{base: strings.TrimSuffix(base, "/"), client: client}
}

func (d *httpSessionDriver) Create(ctx context.Context, item WorkItem) (string, DeltaAnswer, error) {
	return d.post(ctx, d.base+"/v1/session", item.Body)
}

func (d *httpSessionDriver) Delta(ctx context.Context, id string, deltas []spec.Delta) (DeltaAnswer, error) {
	body, err := json.Marshal(daemon.DeltaRequest{Deltas: deltas})
	if err != nil {
		return DeltaAnswer{}, err
	}
	_, ans, err := d.post(ctx, d.base+"/v1/session/"+id+"/delta", body)
	return ans, err
}

// post issues one session-API request and decodes the shared
// SessionResponse shape.
func (d *httpSessionDriver) post(ctx context.Context, url string, body []byte) (string, DeltaAnswer, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return "", DeltaAnswer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := d.client.Do(req)
	//lint:detsource measured latency is the point of this field
	wallMS := float64(time.Since(start).Microseconds()) / 1e3
	if err != nil {
		return "", DeltaAnswer{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", DeltaAnswer{}, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return "", DeltaAnswer{}, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var sr struct {
		TraceID   string          `json:"trace_id"`
		SessionID string          `json:"session_id"`
		Path      string          `json:"path"`
		Placement json.RawMessage `json:"placement"`
	}
	if err := json.Unmarshal(raw, &sr); err != nil {
		return "", DeltaAnswer{}, err
	}
	var pl struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(sr.Placement, &pl); err != nil {
		return "", DeltaAnswer{}, err
	}
	placement := bytes.TrimSpace(sr.Placement)
	return sr.SessionID, DeltaAnswer{
		Path: sr.Path,
		Result: Result{
			TraceID:       sr.TraceID,
			Code:          http.StatusOK,
			Status:        pl.Status,
			WallMS:        wallMS,
			PlacementJSON: placement,
			PlacementHash: hashPlacement(placement),
		},
	}, nil
}

// inprocSessionDriver drives an in-process state.Manager, decoding
// each create with the daemon's own decoder (daemon.DecodePlaceRequest)
// and projecting through the same wire encoding, so CI measures the
// session layer without a listening socket.
type inprocSessionDriver struct {
	mgr          *state.Manager
	sessions     map[string]*state.Session
	defaultLimit time.Duration
	maxLimit     time.Duration
}

// NewInProcessSessionDriver returns the in-process session driver
// (zero limits pick the daemon defaults).
func NewInProcessSessionDriver(defaultLimit, maxLimit time.Duration) SessionDriver {
	return &inprocSessionDriver{
		mgr:          state.NewManager(state.Config{}),
		sessions:     make(map[string]*state.Session),
		defaultLimit: defaultLimit,
		maxLimit:     maxLimit,
	}
}

func (d *inprocSessionDriver) Create(_ context.Context, item WorkItem) (string, DeltaAnswer, error) {
	start := time.Now()
	in, err := daemon.DecodePlaceRequest(item.Body, d.defaultLimit, d.maxLimit)
	if err != nil {
		return "", DeltaAnswer{}, err
	}
	sess, res, err := d.mgr.Create(in.SessionSpec(), in.Options)
	if err != nil {
		return "", DeltaAnswer{}, err
	}
	d.sessions[sess.ID()] = sess
	ans, err := inprocAnswer(res, start)
	return sess.ID(), ans, err
}

func (d *inprocSessionDriver) Delta(_ context.Context, id string, deltas []spec.Delta) (DeltaAnswer, error) {
	sess, ok := d.sessions[id]
	if !ok {
		return DeltaAnswer{}, fmt.Errorf("%w: %s", state.ErrNoSession, id)
	}
	start := time.Now()
	res, err := sess.Delta(deltas, nil, nil)
	if err != nil {
		return DeltaAnswer{}, err
	}
	return inprocAnswer(res, start)
}

// inprocAnswer projects a state result through the daemon's wire
// encoding so hashes match HTTP answers byte for byte.
func inprocAnswer(res *state.Result, start time.Time) (DeltaAnswer, error) {
	placement, err := json.Marshal(daemon.EncodePlacement(res.Placement))
	if err != nil {
		return DeltaAnswer{}, err
	}
	return DeltaAnswer{
		Path: res.Path,
		Result: Result{
			Code:   http.StatusOK,
			Status: res.Placement.Status.String(),
			//lint:detsource measured latency is the point of this field
			WallMS:        float64(time.Since(start).Microseconds()) / 1e3,
			PlacementJSON: placement,
			PlacementHash: hashPlacement(placement),
		},
	}, nil
}
