// Command ruleload is the deterministic load harness for the
// placement daemon: it replays a randgen-seeded workload against a
// live ruleplaced (or in-process, through the daemon's decoder, the
// library and the daemon's wire encoding), prints one live status line
// per interval, and writes a machine-readable
// rulefit-load/v1 report for cmd/benchdiff.
//
// Usage:
//
//	ruleload [-target URL | -inprocess] [-seed N] [-requests N]
//	         [-repeat N] [-concurrency N] [-rps R] [-duration D]
//	         [-merging] [-timelimit SEC] [-out FILE] [-quiet]
//	         [-sweep] [-shed-threshold R] [-step-requests N]
//	         [-max-concurrency N]
//	         [-delta] [-delta-steps N] [-delta-ingresses N]
//	         [-delta-rules N] [-delta-k K] [-delta-min-speedup R]
//
// Modes:
//
//	closed-loop (default): -concurrency N workers each keep one
//	    request in flight until the workload is drained.
//	open-loop: -rps R paces arrivals at a fixed rate regardless of
//	    completions; -duration caps the issuing phase.
//	sweep: -sweep searches for the daemon's shed point by offering
//	    barrier-started waves of rising concurrency, then bisecting to
//	    the knee — the largest concurrency whose shed rate stays below
//	    -shed-threshold. The report records the measured steps and the
//	    served capacity at the knee.
//	delta: -delta replays single-rule deltas through a placement
//	    session, pairing every warm answer with a cold solve of the
//	    identical instance. The report's delta record carries the
//	    warm/cold p50/p99 split and the per-step byte-identity
//	    verdicts; any hash mismatch fails the run, and
//	    -delta-min-speedup R additionally fails it when the cold/warm
//	    p99 ratio lands below R (the session SLO gate).
//
// The workload is a pure function of -seed: identical invocations
// replay byte-identical request bodies (the report's workload
// fingerprint proves it), so two reports diff request-by-request.
// Live status goes to stderr; the report goes to -out (default
// stdout).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"rulefit/internal/load"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ruleload: %v\n", err)
		os.Exit(2)
	}
}

func run() error {
	var (
		targetURL = flag.String("target", "", "base URL of a live ruleplaced (e.g. http://localhost:8080)")
		inprocess = flag.Bool("inprocess", false, "replay through the daemon's decoder and the library in-process instead of HTTP")

		seed        = flag.Int64("seed", 1, "workload seed")
		requests    = flag.Int("requests", 16, "distinct workload instances")
		repeat      = flag.Int("repeat", 1, "replay the workload this many times")
		concurrency = flag.Int("concurrency", 1, "closed-loop worker count")
		rps         = flag.Float64("rps", 0, "open-loop arrival rate (0 = closed loop)")
		duration    = flag.Duration("duration", 0, "open-loop issuing cap (0 = issue everything)")
		merging     = flag.Bool("merging", false, "request rule merging")
		timelimit   = flag.Float64("timelimit", 60, "per-request solver time limit (seconds)")

		sweep         = flag.Bool("sweep", false, "search for the shed point instead of a fixed run")
		shedThreshold = flag.Float64("shed-threshold", 0.5, "sweep: shed rate that counts as saturated")
		stepRequests  = flag.Int("step-requests", 8, "sweep: requests measured per concurrency level")
		maxConc       = flag.Int("max-concurrency", 64, "sweep: doubling-phase cap")

		delta         = flag.Bool("delta", false, "replay single-rule deltas through a session, warm vs cold")
		deltaSteps    = flag.Int("delta-steps", 20, "delta: single-rule deltas to replay")
		deltaIngress  = flag.Int("delta-ingresses", 8, "delta: policies in the instance class")
		deltaRules    = flag.Int("delta-rules", 100, "delta: rules per policy in the instance class")
		deltaK        = flag.Int("delta-k", 4, "delta: fat-tree K of the instance class")
		deltaMinSpeed = flag.Float64("delta-min-speedup", 0, "delta: fail unless cold/warm p99 ratio reaches R (0 = no gate)")

		out   = flag.String("out", "", "report file (default stdout)")
		quiet = flag.Bool("quiet", false, "suppress live status lines")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}
	if (*targetURL == "") == !*inprocess {
		return fmt.Errorf("exactly one of -target or -inprocess is required")
	}

	var target load.Target
	if *inprocess {
		target = load.NewInProcessTarget(0, 0)
	} else {
		target = load.NewHTTPTarget(*targetURL, nil)
	}

	cfg := load.Config{
		Seed:         *seed,
		Requests:     *requests,
		Repeat:       *repeat,
		Concurrency:  *concurrency,
		RPS:          *rps,
		Duration:     *duration,
		Merging:      *merging,
		TimeLimitSec: *timelimit,
	}
	if !*quiet {
		cfg.Status = os.Stderr
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *delta && *sweep {
		return fmt.Errorf("-delta and -sweep are mutually exclusive")
	}

	start := time.Now()
	var rep *load.Report
	var err error
	switch {
	case *delta:
		rep, err = load.RunDelta(ctx, cfg, load.DeltaOpts{
			Steps:          *deltaSteps,
			Ingresses:      *deltaIngress,
			RulesPerPolicy: *deltaRules,
			FatTreeK:       *deltaK,
		}, target)
	case *sweep:
		rep, err = load.RunSweep(ctx, cfg, load.SweepOpts{
			ShedThreshold:  *shedThreshold,
			StepRequests:   *stepRequests,
			MaxConcurrency: *maxConc,
		}, target)
	default:
		rep, err = load.Run(ctx, cfg, target)
	}
	if err != nil {
		return err
	}
	if !*quiet {
		summarize(os.Stderr, rep, time.Since(start))
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		return err
	}
	// The delta gates run after the report is written, so a failing run
	// still leaves the evidence on disk.
	if rep.Delta != nil {
		if rep.Delta.Mismatched > 0 {
			return fmt.Errorf("delta replay: %d step(s) broke warm/cold byte identity", rep.Delta.Mismatched)
		}
		if *deltaMinSpeed > 0 && rep.Delta.SpeedupP99 < *deltaMinSpeed {
			return fmt.Errorf("delta replay: p99 speedup %.2fx below the %.2fx SLO gate",
				rep.Delta.SpeedupP99, *deltaMinSpeed)
		}
	}
	return nil
}

// summarize prints the one-paragraph human trailer after a run.
func summarize(w io.Writer, rep *load.Report, elapsed time.Duration) {
	fmt.Fprintf(w, "done in %.1fs: %d requests (%d ok, %d shed, %d errors), %.1f rps, p50=%.1fms p99=%.1fms\n",
		elapsed.Seconds(), rep.Total, rep.OK, rep.Shed, rep.Errors,
		rep.AchievedRPS, rep.P50MS, rep.P99MS)
	if rep.Sweep != nil {
		state := "saturated"
		if !rep.Sweep.Saturated {
			state = "never saturated (knee is a lower bound)"
		}
		fmt.Fprintf(w, "shed point: knee at %d concurrent, %.1f rps served, %s\n",
			rep.Sweep.KneeConcurrency, rep.Sweep.CapacityRPS, state)
	}
	if rep.Delta != nil {
		fmt.Fprintf(w, "delta (%s, %d steps): warm p50=%.1fms p99=%.1fms, cold p50=%.1fms p99=%.1fms, p99 speedup %.1fx, %d mismatched\n",
			rep.Delta.Class, rep.Delta.Steps,
			rep.Delta.WarmP50MS, rep.Delta.WarmP99MS,
			rep.Delta.ColdP50MS, rep.Delta.ColdP99MS,
			rep.Delta.SpeedupP99, rep.Delta.Mismatched)
	}
	fmt.Fprintf(w, "workload fingerprint: %s\n", rep.Workload.Fingerprint)
}
