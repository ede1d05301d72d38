package load

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"rulefit/internal/obs"
)

// SweepOpts tunes a shed-point sweep.
type SweepOpts struct {
	// ShedThreshold is the shed rate at which a concurrency level
	// counts as saturated (default 0.5).
	ShedThreshold float64
	// StepRequests is the minimum number of requests measured per
	// concurrency level (default 8; rounded up to whole waves).
	StepRequests int
	// MaxConcurrency caps the doubling phase (default 64).
	MaxConcurrency int
}

func (o SweepOpts) withDefaults() SweepOpts {
	if o.ShedThreshold <= 0 {
		o.ShedThreshold = 0.5
	}
	if o.StepRequests <= 0 {
		o.StepRequests = 8
	}
	if o.MaxConcurrency <= 0 {
		o.MaxConcurrency = 64
	}
	return o
}

// RunSweep searches for the daemon's shed point: it offers
// barrier-started waves of C simultaneous requests, doubling C until
// the shed rate crosses opts.ShedThreshold (or C reaches
// MaxConcurrency), then bisects the bracket down to the knee — the
// largest C whose shed rate stayed below the threshold.
//
// Determinism: each wave fully completes before the next starts, and
// all C requests of a wave are released by closing one channel, so the
// daemon sees C near-simultaneous arrivals against a fixed admission
// bound (MaxInFlight + MaxQueue). Solve time (milliseconds) dwarfs
// goroutine launch skew (microseconds), so the per-wave shed count —
// and therefore the knee — is a function of the admission limits, not
// of scheduling luck. The same seed and daemon limits reproduce the
// same knee.
func RunSweep(ctx context.Context, cfg Config, opts SweepOpts, placer Placer) (*Report, error) {
	cfg = cfg.withDefaults()
	opts = opts.withDefaults()
	wl, err := BuildWorkload(cfg)
	if err != nil {
		return nil, err
	}

	acc := &sweepAccum{hist: obs.NewHistogram(latencyBuckets)}
	measured := map[int]SweepStep{}
	var steps []SweepStep
	measure := func(c int) SweepStep {
		if s, ok := measured[c]; ok {
			return s
		}
		s := measureStep(ctx, wl, placer, c, opts.StepRequests, acc)
		measured[c] = s
		steps = append(steps, s)
		if cfg.Status != nil {
			writeStepStatus(cfg.Status, s)
		}
		return s
	}

	// Doubling phase: bracket the knee between the last sub-threshold
	// level (good) and the first saturated one (bad).
	good, bad := 0, 0
	for c := 1; ; {
		if measure(c).ShedRate >= opts.ShedThreshold {
			bad = c
			break
		}
		good = c
		if c >= opts.MaxConcurrency {
			break
		}
		c *= 2
		if c > opts.MaxConcurrency {
			c = opts.MaxConcurrency
		}
	}
	saturated := bad > 0
	if saturated && bad-good > 1 {
		lo, hi := good, bad
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if measure(mid).ShedRate >= opts.ShedThreshold {
				hi = mid
			} else {
				lo = mid
			}
		}
		good = lo
	}

	capacity := 0.0
	if s, ok := measured[good]; ok {
		capacity = s.AchievedRPS
	}
	rep := newReport(cfg, wl, "sweep", targetOf(placer))
	acc.finish(rep)
	rep.Sweep = &SweepRecord{
		ShedThreshold:   opts.ShedThreshold,
		StepRequests:    opts.StepRequests,
		MaxConcurrency:  opts.MaxConcurrency,
		KneeConcurrency: good,
		CapacityRPS:     capacity,
		Saturated:       saturated,
		Steps:           steps,
	}
	return rep, nil
}

// sweepAccum folds every sweep request into the report-level latency
// histogram and outcome counts.
type sweepAccum struct {
	mu     sync.Mutex
	hist   *obs.Histogram
	total  int
	ok     int
	shed   int
	errors int
	wall   time.Duration
}

func (a *sweepAccum) record(res Result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.hist.Observe(res.WallMS / 1e3)
	a.total++
	switch {
	case res.Code == 200:
		a.ok++
	case res.Status == "shed":
		a.shed++
	default:
		a.errors++
	}
}

// finish folds the accumulated counts into the report. It snapshots
// under the lock and writes the (single-goroutine) report outside it,
// so Report fields are never mutex-guarded anywhere.
func (a *sweepAccum) finish(rep *Report) {
	a.mu.Lock()
	total, ok, shed, errs := a.total, a.ok, a.shed, a.errors
	wall := a.wall
	snap := a.hist.Snapshot()
	a.mu.Unlock()

	rep.Total, rep.OK, rep.Shed, rep.Errors = total, ok, shed, errs
	//lint:detsource measured run length is the point of this field
	rep.ElapsedSec = wall.Seconds()
	if rep.ElapsedSec > 0 {
		rep.AchievedRPS = float64(total) / rep.ElapsedSec
	}
	rep.Latency = snap
	rep.P50MS = snap.Quantile(0.50) * 1e3
	rep.P90MS = snap.Quantile(0.90) * 1e3
	rep.P99MS = snap.Quantile(0.99) * 1e3
	rep.P999MS = snap.Quantile(0.999) * 1e3
}

// measureStep offers `requests` requests (rounded up to whole waves)
// at concurrency c: each wave releases exactly c goroutines at once
// and drains completely before the next starts.
func measureStep(ctx context.Context, wl *Workload, placer Placer, c, requests int, acc *sweepAccum) SweepStep {
	waves := (requests + c - 1) / c
	step := SweepStep{Concurrency: c}
	idx := 0
	start := time.Now()
	for w := 0; w < waves && ctx.Err() == nil; w++ {
		release := make(chan struct{})
		results := make([]Result, c)
		var wg sync.WaitGroup
		for k := 0; k < c; k++ {
			item := wl.Items[idx%len(wl.Items)]
			idx++
			wg.Add(1)
			go func(k int, item WorkItem) {
				defer wg.Done()
				<-release
				results[k] = placer.Place(ctx, item)
			}(k, item)
		}
		close(release)
		wg.Wait()
		for _, res := range results {
			step.Requests++
			switch {
			case res.Status == "shed":
				step.Shed++
			case res.Code != 200:
				step.Errors++
			}
			acc.record(res)
		}
	}
	elapsed := time.Since(start)
	acc.mu.Lock()
	acc.wall += elapsed
	acc.mu.Unlock()
	if step.Requests > 0 {
		step.ShedRate = float64(step.Shed) / float64(step.Requests)
	}
	if sec := elapsed.Seconds(); sec > 0 {
		//lint:detsource measured throughput is the point of this field
		step.AchievedRPS = float64(step.Requests) / sec
	}
	return step
}

// writeStepStatus prints one live line per measured sweep step.
func writeStepStatus(w io.Writer, s SweepStep) {
	fmt.Fprintf(w, "sweep c=%-3d requests=%-4d shed=%-4d shed_rate=%.3f rps=%.1f\n",
		s.Concurrency, s.Requests, s.Shed, s.ShedRate, s.AchievedRPS)
}
