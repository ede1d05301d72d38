package daemon

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"rulefit/internal/obs"
)

// This file is the daemon's solve-introspection layer:
//
//   - a registry of live solves, each an obs.Progress view folding the
//     request's solver events, that /debug/solvez reads;
//   - flight-recorder plumbing: every solve feeds the server's global
//     always-on ring, and a per-request ring when a dump can land;
//     rings are dumped as JSONL (traceview-parseable) when a solve
//     dies hard — deadline, panic — on admission shed, or on demand
//     via /debug/flightz.
//
// The layer takes no CPU profile: the Go runtime allows one per
// process, and the net/http/pprof handlers on the debug listener own
// it. serveSolve runs every solve under a trace_id pprof label, so the
// samples of a profile pulled there name their request.
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
// panic) or when admission sheds. No-op without a FlightDir; failures
// are logged, never surfaced to the client.
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
