package load

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"rulefit/internal/bench"
	"rulefit/internal/obs"
	"rulefit/internal/randgen"
)

// Config tunes one load run. The zero value is not a useful workload:
// production call sites must bound the run by stating Requests (or
// Duration for open-loop runs) explicitly — the optzero analyzer
// flags Config literals that set neither.
type Config struct {
	// Seed derives the workload: one randgen.FromSeed instance per
	// request, strided so adjacent requests differ in shape.
	Seed int64
	// Requests is the number of distinct workload instances (default
	// 16); with Repeat it bounds the replay length.
	Requests int
	// Repeat replays the workload this many times (default 1).
	Repeat int
	// Concurrency is the closed-loop worker count (default 1).
	// Ignored in open-loop mode.
	Concurrency int
	// RPS > 0 selects open-loop mode: arrivals are paced at this rate
	// regardless of completions.
	RPS float64
	// Duration caps an open-loop run's issuing phase (0 = issue all
	// Requests*Repeat arrivals).
	Duration time.Duration
	// Merging and TimeLimitSec are the per-request solver options
	// (TimeLimitSec default 60).
	Merging      bool
	TimeLimitSec float64
	// Status, when non-nil, receives one live line per StatusInterval
	// (achieved RPS, in-flight, outcome counts, window percentiles).
	Status io.Writer
	// StatusInterval is the live-line and window-rotation cadence
	// (default 1s). The live percentiles span the last 5 intervals.
	StatusInterval time.Duration
}

// latencyBuckets is the client latency histogram layout: 0.1ms..~52s,
// log-spaced.
var latencyBuckets = obs.HistogramOpts{Start: 0.0001, Factor: 2, Count: 20}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Requests <= 0 {
		c.Requests = 16
	}
	if c.Repeat <= 0 {
		c.Repeat = 1
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 1
	}
	if c.TimeLimitSec <= 0 {
		c.TimeLimitSec = 60
	}
	if c.StatusInterval <= 0 {
		c.StatusInterval = time.Second
	}
	return c
}

// progress is the shared live-status state of one run.
type progress struct {
	win      *obs.Window
	inflight atomic.Int64
	done     atomic.Int64
	ok       atomic.Int64
	shed     atomic.Int64
	errs     atomic.Int64
}

// record folds one result into the counters and the latency window.
func (pr *progress) record(res Result) {
	pr.win.Observe(res.WallMS / 1e3)
	pr.done.Add(1)
	switch {
	case res.Code == 200:
		pr.ok.Add(1)
	case res.Status == "shed":
		pr.shed.Add(1)
	default:
		pr.errs.Add(1)
	}
}

// statusLine renders one live interval line.
func (pr *progress) statusLine(elapsed time.Duration, intervalDone int64, interval time.Duration) string {
	snap := pr.win.Snapshot()
	q := func(p float64) float64 { return snap.Quantile(p) * 1e3 }
	return fmt.Sprintf(
		"t=%5.1fs rps=%6.1f inflight=%-3d done=%-5d ok=%-5d shed=%-4d err=%-3d p50=%.1fms p90=%.1fms p99=%.1fms p999=%.1fms",
		elapsed.Seconds(), float64(intervalDone)/interval.Seconds(),
		pr.inflight.Load(), pr.done.Load(), pr.ok.Load(), pr.shed.Load(), pr.errs.Load(),
		q(0.50), q(0.90), q(0.99), q(0.999))
}

// Run replays the workload per cfg and assembles the report.
// Closed-loop mode (RPS == 0) keeps Concurrency requests in flight;
// open-loop mode paces arrivals at RPS. ctx cancellation stops
// issuing and returns the partial report.
func Run(ctx context.Context, cfg Config, placer Placer) (*Report, error) {
	cfg = cfg.withDefaults()
	wl, err := BuildWorkload(cfg)
	if err != nil {
		return nil, err
	}
	total := cfg.Requests * cfg.Repeat
	results := make([]Result, total)
	pr := &progress{win: obs.NewWindow(obs.WindowOpts{Buckets: latencyBuckets, Intervals: 5})}

	start := time.Now()
	stopStatus := startStatus(cfg, pr, start)
	issue := func(i int) {
		item := wl.Items[i%len(wl.Items)]
		pr.inflight.Add(1)
		res := placer.Place(ctx, item)
		pr.inflight.Add(-1)
		res.Index = i
		results[i] = res
		pr.record(res)
	}

	if cfg.RPS > 0 {
		runOpenLoop(ctx, cfg, total, issue)
	} else {
		runClosedLoop(ctx, cfg, total, issue)
	}
	elapsed := time.Since(start)
	stopStatus()

	mode := "closed"
	if cfg.RPS > 0 {
		mode = "open"
	}
	rep := newReport(cfg, wl, mode, targetOf(placer))
	finishReport(rep, results[:int(pr.done.Load())], elapsed, pr.win.Total(), cfg)
	return rep, nil
}

// runClosedLoop keeps Concurrency workers pulling the next index.
func runClosedLoop(ctx context.Context, cfg Config, total int, issue func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total || ctx.Err() != nil {
					return
				}
				issue(i)
			}
		}()
	}
	wg.Wait()
}

// runOpenLoop paces arrivals at cfg.RPS, independent of completions.
func runOpenLoop(ctx context.Context, cfg Config, total int, issue func(int)) {
	interval := time.Duration(float64(time.Second) / cfg.RPS)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var deadline <-chan time.Time
	if cfg.Duration > 0 {
		timer := time.NewTimer(cfg.Duration)
		defer timer.Stop()
		deadline = timer.C
	}
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		select {
		case <-tick.C:
		case <-deadline:
			wg.Wait()
			return
		case <-ctx.Done():
			wg.Wait()
			return
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			issue(i)
		}(i)
	}
	wg.Wait()
}

// startStatus launches the live-status printer; the returned func
// stops it. No-op when cfg.Status is nil.
func startStatus(cfg Config, pr *progress, start time.Time) func() {
	if cfg.Status == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(cfg.StatusInterval)
		defer tick.Stop()
		var last int64
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				cur := pr.done.Load()
				fmt.Fprintln(cfg.Status, pr.statusLine(time.Since(start), cur-last, cfg.StatusInterval))
				last = cur
				pr.win.Rotate()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// targetOf names the placer kind for the report config.
func targetOf(p Placer) string {
	if _, ok := p.(*inprocPlacer); ok {
		return "inprocess"
	}
	return "http"
}

// newReport stamps the report envelope (host fields, config,
// workload fingerprint).
func newReport(cfg Config, wl *Workload, mode, target string) *Report {
	return &Report{
		Envelope: bench.NewEnvelope(ReportSchema),
		Config: ConfigRecord{
			Seed:         cfg.Seed,
			Requests:     cfg.Requests,
			Repeat:       cfg.Repeat,
			Concurrency:  cfg.Concurrency,
			RPS:          cfg.RPS,
			DurationSec:  cfg.Duration.Seconds(),
			Merging:      cfg.Merging,
			TimeLimitSec: cfg.TimeLimitSec,
			Mode:         mode,
			Target:       target,
		},
		Workload: WorkloadRecord{
			Seed:        wl.Seed,
			Requests:    cfg.Requests,
			Fingerprint: wl.Fingerprint,
		},
	}
}

// finishReport folds the measured results into the report body.
func finishReport(rep *Report, results []Result, elapsed time.Duration, latency obs.HistogramSnapshot, cfg Config) {
	//lint:detsource measured run length is the point of this field
	rep.ElapsedSec = elapsed.Seconds()
	if rep.ElapsedSec > 0 {
		rep.AchievedRPS = float64(len(results)) / rep.ElapsedSec
	}
	rep.Latency = latency
	rep.P50MS = latency.Quantile(0.50) * 1e3
	rep.P90MS = latency.Quantile(0.90) * 1e3
	rep.P99MS = latency.Quantile(0.99) * 1e3
	rep.P999MS = latency.Quantile(0.999) * 1e3

	strata := obs.NewLabeledHistogram(latencyBuckets)
	counts := map[string]int{}
	for _, res := range results {
		rep.Total++
		switch {
		case res.Code == 200:
			rep.OK++
		case res.Status == "shed":
			rep.Shed++
		default:
			rep.Errors++
		}
		item := itemIdentity(cfg, res.Index)
		strata.Observe(item.stratum, res.WallMS/1e3)
		counts[item.stratum]++
		rep.Requests = append(rep.Requests, RequestRecord{
			Index:   res.Index,
			Seed:    item.seed,
			Stratum: item.stratum,
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
	for _, member := range strata.Snapshot() {
		rep.Strata = append(rep.Strata, StratumRecord{
			Stratum:  member.Label,
			Requests: counts[member.Label],
			Latency:  member.Hist,
		})
	}
}

// itemIdentity recomputes a request's workload identity from its
// issue index (cheap: seed arithmetic plus the stratum bucketing of
// BuildWorkload, no instance generation).
type identity struct {
	seed    int64
	stratum string
}

func itemIdentity(cfg Config, index int) identity {
	i := index % cfg.Requests
	seed := cfg.Seed + int64(i)*seedStride
	return identity{seed: seed, stratum: stratumSeed(seed)}
}

// stratumCache memoizes stratumSeed: regenerating an instance per
// result would dominate report assembly.
var (
	stratumMu    sync.Mutex
	stratumCache = map[int64]string{}
)

// stratumSeed computes the stratum of the instance a seed generates.
func stratumSeed(seed int64) string {
	stratumMu.Lock()
	s, ok := stratumCache[seed]
	stratumMu.Unlock()
	if ok {
		return s
	}
	rules := 0
	if inst, err := randgen.Generate(randgen.FromSeed(seed)); err == nil {
		for _, p := range inst.Problem.Policies {
			rules += len(p.Rules)
		}
	}
	s = stratumOf(rules)
	stratumMu.Lock()
	stratumCache[seed] = s
	stratumMu.Unlock()
	return s
}
