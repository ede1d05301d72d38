package daemon

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rulefit/internal/obs"
)

// This file is the daemon's solve-introspection layer:
//
//   - a registry of live solves, each an obs.Progress view folding the
//     request's solver events, that /debug/solvez reads;
//   - flight-recorder plumbing: every solve feeds a per-request ring
//     and the server's global always-on ring; rings are dumped as
//     JSONL (traceview-parseable) when a solve dies hard — deadline,
//     node limit, panic — on admission shed, or on demand via
//     /debug/flightz;
//   - threshold-triggered profiling: a per-request watchdog that
//     captures a CPU profile for solves outrunning
//     Config.ProfileThreshold, with samples labeled by trace_id.
//
// Everything here is observational. Placements are byte-identical
// with the whole layer on or off (TestIntrospectionNoPlacementEffect).

// solveReg tracks the progress views of requests currently inside the
// daemon. Registration is cheap (one map insert per request); reads
// copy the current snapshot of each view.
type solveReg struct {
	mu    sync.Mutex
	views map[string]*obs.Progress
}

func newSolveReg() *solveReg {
	return &solveReg{views: make(map[string]*obs.Progress)}
}

// add registers a request's progress view under its trace ID.
func (g *solveReg) add(traceID string, p *obs.Progress) {
	g.mu.Lock()
	g.views[traceID] = p
	g.mu.Unlock()
}

// remove deregisters a finished request.
func (g *solveReg) remove(traceID string) {
	g.mu.Lock()
	delete(g.views, traceID)
	g.mu.Unlock()
}

// snapshots returns the current snapshot of every live view, sorted by
// trace ID so the JSON is stable for tests and scrapes.
func (g *solveReg) snapshots() []obs.ProgressSnapshot {
	g.mu.Lock()
	out := make([]obs.ProgressSnapshot, 0, len(g.views))
	for _, p := range g.views { //lint:mapdet output is sorted by trace ID below
		out = append(out, p.Snapshot())
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].TraceID < out[j].TraceID })
	return out
}

// solvezResponse is the /debug/solvez JSON body.
type solvezResponse struct {
	Count  int                    `json:"count"`
	Active []obs.ProgressSnapshot `json:"active"`
}

// handleSolvez serves /debug/solvez: one snapshot per request
// currently inside the daemon (queued, solving, or finishing), newest
// state of each. Empty list when idle.
func (s *Server) handleSolvez(w http.ResponseWriter, _ *http.Request) {
	snaps := s.solves.snapshots()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(solvezResponse{Count: len(snaps), Active: snaps}); err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "solvez",
			slog.String("error", err.Error()))
	}
}

// handleFlightz serves /debug/flightz: the global flight ring dumped
// as JSONL, on demand. The dump is the tail of recent solver events
// across all requests (each event carries its trace_id), headed by a
// flight_meta line with the loss accounting — exactly the format
// obs/traceview summarizes.
func (s *Server) handleFlightz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	if err := s.flight.Dump().WriteJSONL(w); err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "flightz",
			slog.String("error", err.Error()))
	}
}

// dumpFlight writes a recorder's ring to <FlightDir>/flight-<name>.jsonl.
// Called when a solve ends in a state worth a post-mortem (deadline,
// node limit, panic) or when admission sheds. No-op without a
// FlightDir; failures are logged, never surfaced to the client.
func (s *Server) dumpFlight(rec *obs.FlightRecorder, name, reason string) {
	if s.cfg.FlightDir == "" || rec == nil {
		return
	}
	path := filepath.Join(s.cfg.FlightDir, "flight-"+name+".jsonl")
	d := rec.Dump()
	f, err := os.Create(path)
	if err == nil {
		err = d.WriteJSONL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "flight_dump",
			slog.String("trace_id", name), slog.String("error", err.Error()))
		return
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "flight_dump",
		slog.String("trace_id", name), slog.String("reason", reason),
		slog.String("path", path), slog.Int("events", len(d.Events)),
		slog.Uint64("seen", d.Seen), slog.Uint64("dropped", d.Dropped))
}

// dumpOnShed dumps the global ring when admission sheds a request, at
// most once per second — a shed storm must not turn into a disk storm.
func (s *Server) dumpOnShed(traceID string) {
	if s.cfg.FlightDir == "" {
		return
	}
	sec := s.now().Unix()
	last := s.shedDumpSec.Load()
	if last == sec || !s.shedDumpSec.CompareAndSwap(last, sec) {
		return
	}
	s.dumpFlight(s.flight, "shed-"+traceID, "shed")
}

// profiled runs f, under a trace_id pprof label when threshold
// profiling is on, so a profile's samples name the request they came
// from. Goroutines f starts (the node-LP workers) inherit the label.
func (s *Server) profiled(ctx context.Context, traceID string, f func()) {
	if s.cfg.ProfileThreshold <= 0 {
		f()
		return
	}
	pprof.Do(ctx, pprof.Labels("trace_id", traceID), func(context.Context) { f() })
}

// cpuProfileActive guards the one CPU profile the runtime allows per
// process: whichever slow solve trips its watchdog first wins; the
// rest skip quietly and their wall time still lands in the phase
// histograms.
var cpuProfileActive atomic.Bool

// profWatch is one request's profiling watchdog. The timer callback
// and the stop path race by construction (a solve can finish exactly
// at the threshold), so both run under mu.
type profWatch struct {
	timer *time.Timer
	mu    sync.Mutex
	file  *os.File
	armed bool // profile running, owned by this watch
	done  bool // stop() ran; a late timer fire must do nothing
}

// watchProfile arms a watchdog: if the request is still running after
// cfg.ProfileThreshold, a CPU profile starts and runs until the solve
// ends, written as <ProfileDir>/profile-<trace_id>.pprof. The returned
// stop must be deferred by the caller. Zero threshold or empty
// ProfileDir disables the watchdog entirely.
func (s *Server) watchProfile(traceID string) (stop func()) {
	if s.cfg.ProfileThreshold <= 0 || s.cfg.ProfileDir == "" {
		return func() {}
	}
	w := &profWatch{}
	w.timer = time.AfterFunc(s.cfg.ProfileThreshold, func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.done {
			return
		}
		if !cpuProfileActive.CompareAndSwap(false, true) {
			return // someone else's profile is running
		}
		path := filepath.Join(s.cfg.ProfileDir, "profile-"+traceID+".pprof")
		f, err := os.Create(path)
		if err != nil {
			cpuProfileActive.Store(false)
			s.log.LogAttrs(context.Background(), slog.LevelWarn, "profile_start",
				slog.String("trace_id", traceID), slog.String("error", err.Error()))
			return
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			os.Remove(path)
			cpuProfileActive.Store(false)
			s.log.LogAttrs(context.Background(), slog.LevelWarn, "profile_start",
				slog.String("trace_id", traceID), slog.String("error", err.Error()))
			return
		}
		w.file = f
		w.armed = true
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "profile_started",
			slog.String("trace_id", traceID), slog.String("path", path))
	})
	return func() {
		w.timer.Stop()
		w.mu.Lock()
		defer w.mu.Unlock()
		w.done = true
		if !w.armed {
			return
		}
		pprof.StopCPUProfile()
		if err := w.file.Close(); err != nil {
			s.log.LogAttrs(context.Background(), slog.LevelWarn, "profile_close",
				slog.String("trace_id", traceID), slog.String("error", err.Error()))
		}
		w.armed = false
		cpuProfileActive.Store(false)
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "profile_done",
			slog.String("trace_id", traceID))
	}
}
