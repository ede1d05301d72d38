package load

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"
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
func RunSweep(ctx context.Context, cfg Config, opts SweepOpts, target Target) (*Report, error) {
	cfg = cfg.withDefaults()
	opts = opts.withDefaults()
	wl, err := BuildWorkload(cfg)
	if err != nil {
		return nil, err
	}

	all := newTally()
	var wall time.Duration
	measured := map[int]SweepStep{}
	var steps []SweepStep
	measure := func(c int) SweepStep {
		if s, ok := measured[c]; ok {
			return s
		}
		start := time.Now()
		s := measureStep(ctx, wl, target, c, opts.StepRequests, all)
		elapsed := time.Since(start)
		wall += elapsed
		if sec := elapsed.Seconds(); sec > 0 {
			//lint:detsource measured throughput is the point of this field
			s.AchievedRPS = float64(s.Requests) / sec
		}
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
	rep := newReport(cfg, wl, "sweep", targetOf(target))
	all.fill(rep, wall)
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

// measureStep offers `requests` requests (rounded up to whole waves)
// at concurrency c: each wave releases exactly c goroutines at once
// and drains completely before the next starts. Every result also
// lands in the sweep's tally; the caller times the step.
func measureStep(ctx context.Context, wl *Workload, target Target, c, requests int, all *tally) SweepStep {
	waves := (requests + c - 1) / c
	var step outcomes
	idx := 0
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
				results[k] = target.Place(ctx, item)
			}(k, item)
		}
		close(release)
		wg.Wait()
		for _, res := range results {
			step.add(res)
			all.record(res)
		}
	}
	s := SweepStep{Concurrency: c, Requests: step.total, Shed: step.shed, Errors: step.errors}
	if step.total > 0 {
		s.ShedRate = float64(step.shed) / float64(step.total)
	}
	return s
}

// writeStepStatus prints one live line per measured sweep step.
func writeStepStatus(w io.Writer, s SweepStep) {
	fmt.Fprintf(w, "sweep c=%-3d requests=%-4d shed=%-4d shed_rate=%.3f rps=%.1f\n",
		s.Concurrency, s.Requests, s.Shed, s.ShedRate, s.AchievedRPS)
}
