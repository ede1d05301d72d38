package load

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rulefit/internal/bench"
	"rulefit/internal/obs"
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
	// Status, when non-nil, receives one live line per StatusInterval:
	// the run's cumulative outcome counts and in-flight requests, and
	// the rate and latency percentiles of the interval just ended.
	Status io.Writer
	// StatusInterval is the live-line cadence (default 1s).
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

// outcomes counts results by class, the one classification every
// mode's report, sweep step and live line read: a 200 is ok, a "shed"
// status shed, anything else an error.
type outcomes struct{ total, ok, shed, errors int }

func (o *outcomes) add(res Result) {
	o.total++
	switch {
	case res.Code == http.StatusOK:
		o.ok++
	case res.Status == "shed":
		o.shed++
	default:
		o.errors++
	}
}

// tally is a run's outcome counts and cumulative client latency. Safe
// for concurrent use.
type tally struct {
	mu      sync.Mutex
	counts  outcomes
	latency *obs.Histogram
}

func newTally() *tally { return &tally{latency: obs.NewHistogram(latencyBuckets)} }

// record folds one result into the counts and the latency histogram.
func (t *tally) record(res Result) {
	t.latency.Observe(res.WallMS / 1e3)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts.add(res)
}

// snapshot reads the outcome counts.
func (t *tally) snapshot() outcomes {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts
}

// fill writes the run length, throughput, outcome counts and latency
// percentiles into the report.
func (t *tally) fill(rep *Report, elapsed time.Duration) {
	c := t.snapshot()
	rep.Total, rep.OK, rep.Shed, rep.Errors = c.total, c.ok, c.shed, c.errors
	//lint:detsource measured run length is the point of this field
	rep.ElapsedSec = elapsed.Seconds()
	if rep.ElapsedSec > 0 {
		rep.AchievedRPS = float64(rep.Total) / rep.ElapsedSec
	}
	rep.Latency = t.latency.Snapshot()
	rep.P50MS = rep.Latency.Quantile(0.50) * 1e3
	rep.P90MS = rep.Latency.Quantile(0.90) * 1e3
	rep.P99MS = rep.Latency.Quantile(0.99) * 1e3
	rep.P999MS = rep.Latency.Quantile(0.999) * 1e3
}

// progress is the shared live state of one run: the cumulative tally
// and the latency of the current status interval.
type progress struct {
	all      *tally
	inflight atomic.Int64

	mu       sync.Mutex
	interval *obs.Histogram
}

func newProgress() *progress {
	return &progress{all: newTally(), interval: obs.NewHistogram(latencyBuckets)}
}

// record folds one result into the tally and the current interval.
func (pr *progress) record(res Result) {
	pr.all.record(res)
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.interval.Observe(res.WallMS / 1e3)
}

// tick ends the current interval and renders its live line: the rate
// and percentiles of the requests that completed within it, beside the
// run's cumulative counts.
func (pr *progress) tick(elapsed, interval time.Duration) string {
	pr.mu.Lock()
	ended := pr.interval
	pr.interval = obs.NewHistogram(latencyBuckets)
	pr.mu.Unlock()
	snap := ended.Snapshot()
	q := func(p float64) float64 { return snap.Quantile(p) * 1e3 }
	c := pr.all.snapshot()
	return fmt.Sprintf(
		"t=%5.1fs rps=%6.1f inflight=%-3d done=%-5d ok=%-5d shed=%-4d err=%-3d p50=%.1fms p90=%.1fms p99=%.1fms p999=%.1fms",
		elapsed.Seconds(), float64(snap.Count)/interval.Seconds(),
		pr.inflight.Load(), c.total, c.ok, c.shed, c.errors,
		q(0.50), q(0.90), q(0.99), q(0.999))
}

// Run replays the workload per cfg and assembles the report.
// Closed-loop mode (RPS == 0) keeps Concurrency requests in flight;
// open-loop mode paces arrivals at RPS. ctx cancellation stops
// issuing and returns the partial report.
func Run(ctx context.Context, cfg Config, target Target) (*Report, error) {
	cfg = cfg.withDefaults()
	wl, err := BuildWorkload(cfg)
	if err != nil {
		return nil, err
	}
	total := cfg.Requests * cfg.Repeat
	results := make([]Result, total)
	pr := newProgress()

	start := time.Now()
	stopStatus := startStatus(cfg, pr, start)
	issue := func(i int) {
		item := wl.Items[i%len(wl.Items)]
		pr.inflight.Add(1)
		res := target.Place(ctx, item)
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
	rep := newReport(cfg, wl, mode, targetOf(target))
	pr.all.fill(rep, elapsed)
	for _, res := range results[:rep.Total] {
		rep.Requests = append(rep.Requests, requestRecord(res.Index, wl.Items[res.Index%len(wl.Items)], res))
	}
	rep.Strata = strata(rep.Requests)
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
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				fmt.Fprintln(cfg.Status, pr.tick(time.Since(start), cfg.StatusInterval))
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// targetOf names the target kind for the report config.
func targetOf(t Target) string {
	if _, ok := t.(*inprocTarget); ok {
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

// requestRecord is the report record of res, issued at index for
// item: the item supplies the request's seed and stratum.
func requestRecord(index int, item WorkItem, res Result) RequestRecord {
	return RequestRecord{
		Index:   index,
		Seed:    item.Seed,
		Stratum: item.Stratum,
		TraceID: res.TraceID,
		Code:    res.Code,
		Status:  res.Status,
		//lint:detsource measured latency is the point of this field
		WallMS:        res.WallMS,
		PlacementHash: res.PlacementHash,
		Phases:        res.Phases,
		Error:         res.Err,
	}
}

// strata breaks the recorded requests' latency down by stratum.
func strata(reqs []RequestRecord) []StratumRecord {
	hist := obs.NewLabeledHistogram(latencyBuckets)
	for _, r := range reqs {
		hist.Observe(r.Stratum, r.WallMS/1e3)
	}
	var out []StratumRecord
	for _, member := range hist.Snapshot() {
		out = append(out, StratumRecord{
			Stratum:  member.Label,
			Requests: int(member.Hist.Count),
			Latency:  member.Hist,
		})
	}
	return out
}
