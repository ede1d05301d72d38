// Package daemon implements the long-running rule placement service
// behind cmd/ruleplaced. It wraps the core.Place pipeline in an HTTP
// API with production telemetry: request-scoped trace IDs joining
// phase spans, solver events, and log lines; latency/size histograms
// and saturation gauges on /metrics; a bounded in-flight limit with
// 429 shedding; health/readiness endpoints; and graceful drain.
//
// Determinism rule: the daemon adds observability around core.Place,
// never inside it. A placement served over HTTP is byte-identical to
// the same problem solved in-process with the same options (see
// TestDaemonMatchesInProcess).
package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/ilp"
	"rulefit/internal/obs"
	"rulefit/internal/spec"
	"rulefit/internal/state"
	"rulefit/internal/topology"
)

// Config tunes the placement daemon. The zero value is usable for
// tests, but production call sites must state MaxInFlight explicitly
// (the optzero analyzer flags Config literals that leave it unset: an
// unbounded daemon admits arbitrarily many concurrent solves and each
// branch & bound run can hold hundreds of megabytes).
type Config struct {
	// MaxInFlight bounds concurrently solving requests
	// (0 = GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds requests admitted but waiting for a solve slot;
	// arrivals beyond MaxInFlight+MaxQueue are shed with 429 (default 0:
	// shed as soon as all slots are busy).
	MaxQueue int
	// DefaultTimeLimit applies to requests that set no time limit
	// (default 60s).
	DefaultTimeLimit time.Duration
	// MaxTimeLimit caps per-request time limits (default 10m).
	MaxTimeLimit time.Duration
	// MaxBodyBytes caps the request body size (default 8 MiB).
	MaxBodyBytes int64
	// TraceDir, when non-empty, writes each request's solver event
	// stream as <TraceDir>/trace-<trace_id>.jsonl, joinable with the
	// request's log line and spans by trace ID.
	TraceDir string
	// Logger receives one structured line per request (default: JSON
	// to stderr).
	Logger *slog.Logger
	// SolveDelay artificially extends each request's solve-slot
	// occupancy (applied after slot acquisition, before parsing).
	// Production daemons leave it zero; load experiments set it so the
	// admission behavior — which requests shed at a given offered
	// concurrency — is a function of MaxInFlight/MaxQueue rather than
	// of how fast tiny instances happen to solve. Placement bytes are
	// unaffected.
	SolveDelay time.Duration
	// MaxSessions bounds live stateful sessions (POST /v1/session);
	// creating one past the cap evicts the least-recently-used session
	// (default 64).
	MaxSessions int
	// FlightDir, when non-empty, receives flight dumps as
	// <FlightDir>/flight-<trace_id>.jsonl when a solve ends on its
	// deadline, panics, or when admission sheds (default: TraceDir).
	// Each solve then also feeds a per-request ring of its own. Empty
	// with an empty TraceDir disables file dumps; /debug/flightz still
	// serves the global ring on demand.
	FlightDir string
}

// The time-limit policy's defaults (Config.DefaultTimeLimit and
// Config.MaxTimeLimit).
const (
	defaultTimeLimit = 60 * time.Second
	defaultMaxLimit  = 10 * time.Minute
)

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.DefaultTimeLimit <= 0 {
		c.DefaultTimeLimit = defaultTimeLimit
	}
	if c.MaxTimeLimit <= 0 {
		c.MaxTimeLimit = defaultMaxLimit
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if c.FlightDir == "" {
		c.FlightDir = c.TraceDir
	}
	return c
}

// Server is the placement daemon: an HTTP handler set plus admission
// control. Create with New, serve with Start/Serve (or mount Handler
// on a test server), stop with Shutdown.
type Server struct {
	cfg      Config
	log      *slog.Logger
	met      *obs.Metrics // this server's registry, fed by every request and solve
	sem      chan struct{}
	seq      atomic.Uint64
	queued   atomic.Int64
	ready    atomic.Bool
	mux      *http.ServeMux
	debug    *http.ServeMux
	srv      *http.Server
	ln       net.Listener
	started  time.Time
	reqRing  *secRing // finished requests per second, for /statusz rates
	shedRing *secRing // 429-shed requests per second
	sessions *state.Manager
	// now is the server's clock (time.Now in production); tests inject
	// it to drive the rate rings and uptime without sleeping.
	now func() time.Time
	// flight is the global always-on flight recorder: every solve's
	// events feed it alongside the per-request ring, so a shed or an
	// on-demand /debug/flightz dump shows what the whole daemon was
	// doing lately.
	flight *obs.FlightRecorder
	// solves registers live requests' progress views for /debug/solvez.
	solves *solveReg
	// shedDumpSec rate-limits shed-triggered flight dumps to 1/sec.
	shedDumpSec atomic.Int64
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		met:      obs.NewMetrics(),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		mux:      http.NewServeMux(),
		started:  time.Now(),
		reqRing:  newSecRing(statusRingSlots),
		shedRing: newSecRing(statusRingSlots),
		now:      time.Now,
		flight:   obs.NewFlightRecorder(obs.FlightOpts{Size: obs.FlightEvents}),
		solves:   newSolveReg(),
	}
	s.sessions = state.NewManager(state.Config{MaxSessions: cfg.MaxSessions, Logger: cfg.Logger})
	s.mux.HandleFunc("/v1/place", s.handlePlace)
	s.mux.HandleFunc("/v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("/v1/session/", s.handleSession)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/debug/solvez", s.handleSolvez)
	s.mux.HandleFunc("/debug/flightz", s.handleFlightz)

	// The debug mux carries only pprof, so profiling endpoints can be
	// bound to a loopback-only address in production.
	s.debug = http.NewServeMux()
	s.debug.HandleFunc("/debug/pprof/", httppprof.Index)
	s.debug.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	s.debug.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	s.debug.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	s.debug.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return s
}

// Handler returns the API handler (place, metrics, health).
func (s *Server) Handler() http.Handler { return s.mux }

// DebugHandler returns the net/http/pprof handler.
func (s *Server) DebugHandler() http.Handler { return s.debug }

// Start binds addr (":0" for an ephemeral port) and marks the server
// ready. Serve must be called to accept connections.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	s.ready.Store(true)
	return nil
}

// Addr returns the bound address (after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections until Shutdown. Like http.Server.Serve it
// returns http.ErrServerClosed on graceful stop.
func (s *Server) Serve() error {
	if s.srv == nil {
		return errors.New("daemon: Serve before Start")
	}
	return s.srv.Serve(s.ln)
}

// Shutdown drains the server: readiness flips to 503 immediately (so
// load balancers stop routing), no new connections are accepted, and
// the call blocks until in-flight requests complete or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	if s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

// PlaceRequest is the POST /v1/place body: an internal/spec problem
// description plus per-request solver options.
type PlaceRequest struct {
	Problem json.RawMessage `json:"problem"`
	Options RequestOptions  `json:"options"`
}

// RequestOptions is the per-request subset of core.Options, in wire
// form.
type RequestOptions struct {
	// Backend is "ilp" (default) or "sat".
	Backend string `json:"backend,omitempty"`
	// Objective is "rules" (default), "traffic", or "minmaxload"
	// (core.ParseObjective). Weighted placement needs per-switch
	// costs, which the wire does not carry, so it is library-only.
	Objective       string `json:"objective,omitempty"`
	Merging         bool   `json:"merging,omitempty"`
	PathSlicing     bool   `json:"pathSlicing,omitempty"`
	RemoveRedundant bool   `json:"removeRedundant,omitempty"`
	SatisfyOnly     bool   `json:"satisfyOnly,omitempty"`
	// TimeLimitSec bounds the solve; 0 uses the daemon default and the
	// daemon cap always applies.
	TimeLimitSec float64 `json:"timeLimitSec,omitempty"`
}

// BuildOptions converts the wire options to core.Options (without the
// observational fields) under a time-limit policy: a request without a
// limit gets defaultLimit, and no request exceeds maxLimit. Zero limits
// pick the daemon defaults (60s, 10m).
func (ro RequestOptions) BuildOptions(defaultLimit, maxLimit time.Duration) (core.Options, error) {
	opts := core.Options{
		Merging:         ro.Merging,
		PathSlicing:     ro.PathSlicing,
		RemoveRedundant: ro.RemoveRedundant,
		SatisfyOnly:     ro.SatisfyOnly,
	}
	var err error
	if opts.Backend, err = core.ParseBackend(ro.Backend); err != nil {
		return opts, err
	}
	if opts.Objective, err = core.ParseObjective(ro.Objective); err != nil {
		return opts, err
	}
	if ro.TimeLimitSec < 0 {
		return opts, fmt.Errorf("negative timeLimitSec %g", ro.TimeLimitSec)
	}
	if defaultLimit <= 0 {
		defaultLimit = defaultTimeLimit
	}
	if maxLimit <= 0 {
		maxLimit = defaultMaxLimit
	}
	opts.TimeLimit = time.Duration(ro.TimeLimitSec * float64(time.Second))
	if opts.TimeLimit == 0 {
		opts.TimeLimit = defaultLimit
	}
	if opts.TimeLimit > maxLimit {
		opts.TimeLimit = maxLimit
	}
	return opts, nil
}

// PlaceInput is a decoded PlaceRequest, ready to solve.
type PlaceInput struct {
	// Spec is the problem description as sent.
	Spec *spec.Problem
	// Problem is the built instance; it passed core.Problem.Validate.
	Problem *core.Problem
	// Options are the request's solver options with the problem's
	// monitors. The caller adds the observational fields.
	Options core.Options
}

// DecodePlaceRequest is the one PlaceRequest decoder: JSON (unknown
// fields rejected), spec load, build, validation, options under the
// given time-limit policy (see BuildOptions), monitors. /v1/place,
// /v1/session and the load harness's in-process drivers all decode
// through it, so they solve identical inputs. Every error is the
// client's: the daemon answers it 400.
func DecodePlaceRequest(body []byte, defaultLimit, maxLimit time.Duration) (*PlaceInput, error) {
	var req PlaceRequest
	if err := spec.DecodeStrict(bytes.NewReader(body), &req); err != nil {
		return nil, err
	}
	if len(req.Problem) == 0 {
		return nil, errors.New("missing problem")
	}
	desc, err := spec.LoadBytes(req.Problem)
	if err != nil {
		return nil, err
	}
	prob, err := desc.Build()
	if err != nil {
		return nil, err
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	opts, err := req.Options.BuildOptions(defaultLimit, maxLimit)
	if err != nil {
		return nil, err
	}
	if opts.Monitors, err = desc.BuildMonitors(); err != nil {
		return nil, err
	}
	return &PlaceInput{Spec: desc, Problem: prob, Options: opts}, nil
}

// SessionSpec is the authoritative state a session keeps for the
// request: the explicit flattening of the built instance, so generated
// topologies and policies delta the same as hand-written ones. Monitor
// declarations ride along for GET visibility; the solver's monitors
// are fixed in Options.
func (in *PlaceInput) SessionSpec() *spec.Problem {
	explicit := spec.FromCore(in.Problem)
	explicit.Monitors = append([]spec.Monitor(nil), in.Spec.Monitors...)
	return explicit
}

// PlaceResponse is the POST /v1/place reply. Placement is the
// deterministic part: byte-identical for identical (problem, options)
// pairs regardless of transport, branch & bound pool size, or attached
// telemetry. TraceID and WallMS are observational.
type PlaceResponse struct {
	TraceID   string    `json:"trace_id"`
	WallMS    float64   `json:"wall_ms"`
	Placement Placement `json:"placement"`
}

// Placement is the JSON-stable projection of a core.Placement.
type Placement struct {
	Status     string    `json:"status"`
	TotalRules int       `json:"total_rules"`
	Objective  float64   `json:"objective"`
	MaxLoad    float64   `json:"max_load"`
	Assign     [][][]int `json:"assign"`
	MergedAt   [][]int   `json:"merged_at"`
	Stats      Stats     `json:"stats"`
}

// Stats is the deterministic solver-effort subset of core.Stats
// (wall-clock fields are deliberately absent).
type Stats struct {
	Variables    int     `json:"variables"`
	Constraints  int     `json:"constraints"`
	Nodes        int     `json:"nodes"`
	SimplexIters int     `json:"simplex_iters"`
	StopReason   string  `json:"stop_reason"`
	BestBound    float64 `json:"best_bound"`
	Gap          float64 `json:"gap"`
}

// EncodePlacement projects a core.Placement into the wire form. The
// projection is a pure function of the placement, so two byte-equal
// placements encode to byte-equal JSON.
func EncodePlacement(pl *core.Placement) Placement {
	out := Placement{
		Status:     pl.Status.String(),
		TotalRules: pl.TotalRules,
		Objective:  pl.Objective,
		MaxLoad:    pl.MaxLoad,
		Assign:     make([][][]int, len(pl.Assign)),
		MergedAt:   make([][]int, len(pl.MergedAt)),
		Stats: Stats{
			Variables:    pl.Stats.Variables,
			Constraints:  pl.Stats.Constraints,
			Nodes:        pl.Stats.BnBNodes,
			SimplexIters: pl.Stats.SimplexIters,
			StopReason:   pl.Stats.StopReason.String(),
			BestBound:    pl.Stats.BestBound,
			Gap:          pl.Stats.Gap,
		},
	}
	for pi := range pl.Assign {
		out.Assign[pi] = make([][]int, len(pl.Assign[pi]))
		for ri := range pl.Assign[pi] {
			out.Assign[pi][ri] = switchIDs(pl.Assign[pi][ri])
		}
	}
	for g := range pl.MergedAt {
		out.MergedAt[g] = switchIDs(pl.MergedAt[g])
	}
	return out
}

// switchIDs converts a switch list to plain ints ([] rather than null
// for empty, keeping the JSON stable).
func switchIDs(sws []topology.SwitchID) []int {
	out := make([]int, len(sws))
	for i, sw := range sws {
		out[i] = int(sw)
	}
	return out
}

// errorResponse is the JSON error body.
type errorResponse struct {
	TraceID string `json:"trace_id,omitempty"`
	Error   string `json:"error"`
}

// handlePlace serves POST /v1/place: one cold placement.
func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	s.serveSolve(w, r, "place", func(body []byte) (solveFunc, error) {
		in, err := s.decodePlace(body)
		if err != nil {
			return nil, err
		}
		return func(req *obs.RequestCtx, sink obs.Sink, st *requestState) error {
			opts := in.Options
			opts.Trace, opts.SolverSink = req.Trace, sink
			pl, err := core.Place(in.Problem, opts)
			st.code, st.placement = http.StatusOK, pl
			return err
		}, nil
	})
}

// decodePlace runs DecodePlaceRequest under the daemon's time-limit
// policy.
func (s *Server) decodePlace(body []byte) (*PlaceInput, error) {
	return DecodePlaceRequest(body, s.cfg.DefaultTimeLimit, s.cfg.MaxTimeLimit)
}

// A solveStep is a solve endpoint's own part of serveSolve: it decodes
// the request body and returns the solve to run on it. A decode error
// answers 400 unless it names another class (see requestState.fail).
type solveStep func(body []byte) (solveFunc, error)

// A solveFunc runs a decoded request's solve under the request's
// context (trace ID, spans) and solver sink, and fills st's code and
// placement, plus body where the endpoint has its own reply shape. An
// error answers 500 unless it names another class.
type solveFunc func(req *obs.RequestCtx, sink obs.Sink, st *requestState) error

// serveSolve is the request pipeline of every solve endpoint:
// /v1/place, /v1/session and /v1/session/{id}/delta. It reads the body
// and derives the trace ID, registers the request's progress view from
// arrival, runs admission, then the endpoint's decode (timed as the
// parse phase) and solve. The solve's events, stamped with the trace
// ID, feed the progress view, the global flight ring, the metrics
// registry, the -trace-dir event file and, when a flight dump can
// land, a per-request ring. The solve runs under a trace_id pprof
// label; one that panics or stops on its deadline leaves a flight
// dump. finish answers exactly once.
func (s *Server) serveSolve(w http.ResponseWriter, r *http.Request, op string, step solveStep) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	// The trace ID is derived even when the read failed (from the
	// partial body), so every response — including this 400 — carries
	// X-Rulefit-Trace-Id and is joinable with its log line.
	traceID := obs.TraceIDFor(s.seq.Add(1), body)
	st := requestState{traceID: traceID, op: op, start: start}
	if err != nil {
		st.fail(fmt.Errorf("reading body: %w", err), http.StatusBadRequest)
		s.finish(w, r, st)
		return
	}

	// Register the request's progress view before admission so
	// /debug/solvez sees it through queue wait and solve alike; it
	// folds the solve's events as they arrive.
	progress := obs.NewProgress(traceID)
	s.solves.add(traceID, progress)
	defer s.solves.remove(traceID)

	release, ok := s.acquireSlot(r, &st)
	if !ok {
		s.finish(w, r, st)
		return
	}
	defer release()

	parseStart := time.Now()
	solve, err := step(body)
	st.parse = time.Since(parseStart)
	if err != nil {
		st.fail(err, http.StatusBadRequest)
		s.finish(w, r, st)
		return
	}
	req := obs.NewRequestCtx(traceID)
	st.trace = req.Trace

	// Every solve feeds the progress view, the server's global flight
	// ring and the server's metrics registry, on top of the optional
	// full trace file. The per-request ring (post-mortem scoped to this
	// request) is built only where dumpFlight can write it. Sinks never
	// feed back: the placement is byte-identical whatever is attached.
	sinks := []obs.Sink{progress, s.flight, s.met}
	var rec *obs.FlightRecorder
	if s.cfg.FlightDir != "" {
		rec = obs.NewFlightRecorder(obs.FlightOpts{Size: obs.FlightEvents})
		sinks = append(sinks, rec)
	}
	var traceFile *os.File
	var traceJW *obs.JSONLWriter
	if s.cfg.TraceDir != "" {
		traceFile, err = os.Create(filepath.Join(s.cfg.TraceDir, "trace-"+traceID+".jsonl"))
		if err != nil {
			st.fail(err, http.StatusInternalServerError)
			s.finish(w, r, st)
			return
		}
		traceJW = obs.NewJSONLWriter(traceFile)
		sinks = append(sinks, traceJW)
	}
	defer func() {
		if p := recover(); p != nil {
			s.dumpFlight(rec, traceID, "panic")
			panic(p)
		}
	}()

	sink := obs.Tag(traceID, obs.Multi(sinks...))
	// Goroutines the solve starts (the node-LP workers) inherit the
	// label, so a CPU profile pulled from DebugHandler attributes their
	// samples to this request too.
	pprof.Do(r.Context(), pprof.Labels("trace_id", traceID), func(context.Context) {
		err = solve(req, sink, &st)
	})
	if traceFile != nil {
		if ferr := traceJW.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		st.fail(err, http.StatusInternalServerError)
		s.finish(w, r, st)
		return
	}
	// A solve that died on its deadline gets an automatic post-mortem:
	// the per-request ring holds the tail of its event stream,
	// including the final incumbent/bound state.
	if st.placement.Stats.StopReason == ilp.StopDeadline {
		s.dumpFlight(rec, traceID, ilp.StopDeadline.String())
	}
	st.status = st.placement.Status.String()
	s.finish(w, r, st)
}

// statusClientClosed mirrors the conventional nginx 499 code for
// client-canceled requests; net/http has no named constant for it.
const statusClientClosed = 499

// acquireSlot runs the admission policy for one solve-bound request:
// MaxInFlight solving, MaxQueue waiting, 429 beyond, 499 when the
// client leaves the queue. On success it returns the release func the
// caller must defer; on failure st carries the refusal and the caller
// just finishes the request.
func (s *Server) acquireSlot(r *http.Request, st *requestState) (func(), bool) {
	if s.queued.Add(1) > int64(s.cfg.MaxInFlight+s.cfg.MaxQueue) {
		s.queued.Add(-1)
		st.code, st.status = http.StatusTooManyRequests, "shed"
		st.err = errors.New("server at capacity")
		// Shedding means the daemon is saturated — capture what it was
		// busy with (rate-limited inside).
		s.dumpOnShed(st.traceID)
		return nil, false
	}
	s.met.QueueDepth().Add(1)
	admit := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.met.QueueDepth().Add(-1)
		st.queueWait = time.Since(admit)
	case <-r.Context().Done():
		s.met.QueueDepth().Add(-1)
		s.queued.Add(-1)
		st.code, st.status = statusClientClosed, "canceled"
		st.err = r.Context().Err()
		return nil, false
	}
	s.met.InFlight().Add(1)
	if s.cfg.SolveDelay > 0 {
		time.Sleep(s.cfg.SolveDelay)
	}
	return func() {
		s.met.InFlight().Add(-1)
		<-s.sem
		s.queued.Add(-1)
	}, true
}

// requestState accumulates one request's outcome for the response,
// the log line, and the metrics sample.
type requestState struct {
	traceID   string
	op        string // log message
	code      int
	status    string
	err       error
	placement *core.Placement
	// body, when non-nil, overrides the success response JSON (the
	// session endpoints use their own shapes; /v1/place keeps
	// PlaceResponse). A *SessionResponse gets WallMS stamped by finish.
	body      any
	start     time.Time
	queueWait time.Duration // admission to solve-slot acquisition
	parse     time.Duration // body decode + spec build + option parse
	trace     *obs.Trace    // request span tree (phase attribution)
}

// fail records err as the request's outcome. An error that names its
// class answers with it — a bad delta or unsolvable instance is the
// client's (400), an unknown session 404 — and any other answers code.
func (st *requestState) fail(err error, code int) {
	switch {
	case errors.Is(err, state.ErrBadDelta):
		code = http.StatusBadRequest
	case errors.Is(err, state.ErrNoSession):
		code = http.StatusNotFound
	}
	st.code, st.err = code, err
	st.placement, st.body = nil, nil
	switch code {
	case http.StatusBadRequest:
		st.status = "bad_request"
	case http.StatusNotFound:
		st.status = "not_found"
	default:
		st.status = "error"
	}
}

// phaseDur is one attributed slice of a request's wall time.
type phaseDur struct {
	name string
	d    time.Duration
}

// PlacePhases returns the solver-side phases of a request's trace: the
// children of its core "place" span (decompose, encode, model_build,
// solve, extract) in start order. Server-Timing, the
// rulefit_request_phase_seconds histograms and ruleload's in-process
// answers all report this list.
func PlacePhases(tr *obs.Trace) []*obs.Span {
	var out []*obs.Span
	for _, root := range tr.Roots() {
		if root.Name() == "place" {
			out = append(out, root.Children()...)
		}
	}
	return out
}

// phases flattens the request's per-phase durations: the queue wait
// and parse intervals measured by the handler, then PlacePhases.
// Requests that never reached the solver report only the
// handler-measured phases.
func (st requestState) phases() []phaseDur {
	var out []phaseDur
	if st.queueWait > 0 {
		out = append(out, phaseDur{"queue_wait", st.queueWait})
	}
	if st.parse > 0 {
		out = append(out, phaseDur{"parse", st.parse})
	}
	for _, ch := range PlacePhases(st.trace) {
		out = append(out, phaseDur{ch.Name(), ch.Wall()})
	}
	return out
}

// serverTiming renders phases as a Server-Timing header value
// (metric;dur=milliseconds, comma-separated, in pipeline order).
func serverTiming(phases []phaseDur) string {
	var sb bytes.Buffer
	for i, p := range phases {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s;dur=%.3f", p.name, float64(p.d.Microseconds())/1e3)
	}
	return sb.String()
}

// finish writes the response, the per-request log line, and the
// metrics sample — exactly once per request.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, st requestState) {
	wall := time.Since(st.start)
	sample := obs.RequestSample{Status: st.status}
	attrs := []slog.Attr{
		slog.String("trace_id", st.traceID),
		slog.String("status", st.status),
		slog.Int("code", st.code),
		slog.Float64("wall_ms", float64(wall.Microseconds())/1e3),
	}
	level := slog.LevelInfo
	if st.placement != nil {
		sample.StopReason = st.placement.Stats.StopReason.String()
		sample.Placed = true
		sample.InstalledRules = st.placement.TotalRules
		attrs = append(attrs,
			slog.Int("nodes", st.placement.Stats.BnBNodes),
			slog.Float64("gap", st.placement.Stats.Gap),
			slog.String("stop_reason", sample.StopReason),
			slog.Int("total_rules", st.placement.TotalRules),
		)
	}
	if st.err != nil {
		attrs = append(attrs, slog.String("error", st.err.Error()))
		level = slog.LevelWarn
	}
	s.met.RecordRequest(sample)
	phases := st.phases()
	for _, p := range phases {
		s.met.RecordPhaseTrace(p.name, p.d, st.traceID)
	}
	now := s.now().Unix()
	s.reqRing.addAt(now, 1)
	if st.status == "shed" {
		s.shedRing.addAt(now, 1)
	}
	s.log.LogAttrs(r.Context(), level, st.op, attrs...)

	if st.traceID != "" {
		w.Header().Set("X-Rulefit-Trace-Id", st.traceID)
	}
	if len(phases) > 0 {
		w.Header().Set("Server-Timing", serverTiming(phases))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(st.code)
	enc := json.NewEncoder(w)
	if st.body != nil {
		if sr, ok := st.body.(*SessionResponse); ok {
			//lint:detsource measured latency is the point of this field
			sr.WallMS = float64(wall.Microseconds()) / 1e3
		}
		if err := enc.Encode(st.body); err != nil {
			s.log.LogAttrs(r.Context(), slog.LevelWarn, "write_response",
				slog.String("trace_id", st.traceID), slog.String("error", err.Error()))
		}
		return
	}
	if st.placement == nil {
		msg := ""
		if st.err != nil {
			msg = st.err.Error()
		}
		if err := enc.Encode(errorResponse{TraceID: st.traceID, Error: msg}); err != nil {
			s.log.LogAttrs(r.Context(), slog.LevelWarn, "write_response",
				slog.String("trace_id", st.traceID), slog.String("error", err.Error()))
		}
		return
	}
	resp := PlaceResponse{
		TraceID: st.traceID,
		//lint:detsource measured latency is the point of this field
		WallMS:    float64(wall.Microseconds()) / 1e3,
		Placement: EncodePlacement(st.placement),
	}
	if err := enc.Encode(resp); err != nil {
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "write_response",
			slog.String("trace_id", st.traceID), slog.String("error", err.Error()))
	}
}

// handleMetrics serves the Prometheus text exposition. Cache-Control
// no-store keeps intermediaries from serving stale scrapes.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Header().Set("Cache-Control", "no-store")
	if err := s.met.WritePrometheus(w); err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "metrics",
			slog.String("error", err.Error()))
	}
}

// handleHealthz reports process liveness (always 200 once serving).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports routability: 200 while accepting work, 503
// before Start and during drain.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
