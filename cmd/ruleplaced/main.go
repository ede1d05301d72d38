// Command ruleplaced is the long-running rule placement daemon: it
// serves the core.Place pipeline over HTTP with operational telemetry
// (request-scoped trace IDs, latency/size histograms, saturation
// gauges, structured JSON logs) and drains gracefully on SIGTERM.
//
// Usage:
//
//	ruleplaced [-addr :8080] [-debug-addr 127.0.0.1:6060]
//	           [-max-inflight N] [-max-queue N] [-max-sessions N]
//	           [-default-timeout 60s] [-max-timeout 10m]
//	           [-trace-dir DIR] [-drain-timeout 30s] [-solve-delay D]
//	           [-flight-dir DIR]
//
// Endpoints (on -addr):
//
//	POST   /v1/place              solve a placement: {"problem": <spec JSON>, "options": {...}}
//	POST   /v1/session            create a stateful session (same body as /v1/place)
//	GET    /v1/session/{id}       current session version + placement
//	POST   /v1/session/{id}/delta apply deltas: {"deltas": [{"op": "add_rule", ...}, ...]}
//	DELETE /v1/session/{id}       drop the session
//	GET    /metrics               Prometheus text exposition (counters, gauges, histograms)
//	GET    /statusz               saturation snapshot: in-flight, queue depth, 1m/5m request and shed rates, slowest trace per phase
//	GET    /healthz               liveness (200 while the process runs)
//	GET    /readyz                readiness (503 during drain)
//	GET    /debug/solvez          live solve introspection: one progress snapshot per in-flight request
//	GET    /debug/flightz         on-demand dump of the global flight-recorder ring (JSONL)
//
// The three solve endpoints (/v1/place, /v1/session and
// /v1/session/{id}/delta) share one request pipeline, so every solve
// gets the same treatment: an X-Rulefit-Trace-Id header (joinable with
// the daemon's log lines and trace files) and a Server-Timing header
// attributing wall time to pipeline phases (queue_wait, parse, encode,
// model_build, solve, extract); a /debug/solvez progress view from
// arrival; the flight rings; the daemon's metrics registry, which
// folds the solver counters on /metrics from the same events; a
// -trace-dir event file (trace-<trace_id>.jsonl); and a trace_id pprof
// label.
//
// -debug-addr serves net/http/pprof (/debug/pprof/) and nothing else,
// intended for a loopback-only bind; /metrics, /debug/solvez and
// /debug/flightz are served on -addr only. Its /debug/pprof/profile is
// the daemon's one CPU profiler: every solve runs under its trace_id
// label, so `go tool pprof -tagfocus trace_id=<id>` narrows a profile
// pulled while a request runs to that request's samples.
// -solve-delay artificially extends each solve-slot occupancy for load
// experiments (cmd/ruleload -sweep calibration); leave it zero in
// production.
//
// Flight recorder: every solve's event stream feeds a global ring of
// the last 4096 events and, when -flight-dir (default: -trace-dir) is
// set, a per-request ring of the same size. When a solve dies on its
// deadline or panics, or when admission sheds, the relevant ring is
// dumped there as flight-<trace_id>.jsonl — readable with
// cmd/traceview. Placements are byte-identical to running core.Place
// in-process: the daemon only adds observability around the solve,
// never inside it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rulefit/internal/daemon"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ruleplaced:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8080", "API listen address")
		debugAddr    = flag.String("debug-addr", "", "net/http/pprof listen address (empty disables; bind loopback in production)")
		maxInFlight  = flag.Int("max-inflight", 0, "max concurrently solving requests (0 = GOMAXPROCS)")
		maxQueue     = flag.Int("max-queue", 0, "max requests waiting for a solve slot before 429 shedding")
		maxSessions  = flag.Int("max-sessions", 0, "max live stateful sessions before LRU eviction (0 = 64)")
		defTimeout   = flag.Duration("default-timeout", 60*time.Second, "solver time limit for requests that set none")
		maxTimeout   = flag.Duration("max-timeout", 10*time.Minute, "cap on per-request solver time limits")
		traceDir     = flag.String("trace-dir", "", "write per-request solver event traces (JSONL) into this directory")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight solves on SIGTERM")
		solveDelay   = flag.Duration("solve-delay", 0, "artificially extend each solve-slot occupancy (load experiments only)")
		flightDir    = flag.String("flight-dir", "", "write flight dumps into this directory (default: -trace-dir)")
	)
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	s := daemon.New(daemon.Config{
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		MaxSessions:      *maxSessions,
		DefaultTimeLimit: *defTimeout,
		MaxTimeLimit:     *maxTimeout,
		TraceDir:         *traceDir,
		Logger:           logger,
		SolveDelay:       *solveDelay,
		FlightDir:        *flightDir,
	})
	if err := s.Start(*addr); err != nil {
		return err
	}
	logger.Info("listening", slog.String("addr", s.Addr()))

	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, s.DebugHandler()); err != nil {
				logger.Warn("debug server", slog.String("error", err.Error()))
			}
		}()
	}

	// Graceful drain: on SIGTERM/SIGINT stop accepting, flip /readyz to
	// 503, and wait up to -drain-timeout for in-flight solves.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- s.Serve() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("draining", slog.Duration("timeout", *drainTimeout))
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errCh; err != nil && err != http.ErrServerClosed {
		return err
	}
	logger.Info("drained")
	return nil
}
