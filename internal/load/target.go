package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/daemon"
	"rulefit/internal/obs"
	"rulefit/internal/spec"
	"rulefit/internal/state"
)

// Result is one completed request observation.
type Result struct {
	Index   int
	TraceID string
	Code    int
	Status  string
	// WallMS is the client-observed latency.
	WallMS float64
	// PlacementJSON is the raw placement body on success (nil
	// otherwise); PlacementHash its FNV-1a content hash.
	PlacementJSON []byte
	PlacementHash string
	// Phases is the server-side phase attribution (Server-Timing over
	// HTTP, the span tree in-process).
	Phases []PhaseMS
	Err    string
}

// DeltaAnswer is one session answer: the shared Result fields plus
// the session path that produced it.
type DeltaAnswer struct {
	Result
	Path string
}

// Target is the daemon under load: its placement endpoint and its
// session API. Both implementations fill the same Result fields, so
// reports from HTTP and in-process runs diff against each other, and a
// delta replay's warm and cold answers come from one backend.
type Target interface {
	// Place solves one workload item from scratch.
	Place(ctx context.Context, item WorkItem) Result
	// Create opens a session for item and returns its ID plus the
	// initial (cold) answer.
	Create(ctx context.Context, item WorkItem) (string, DeltaAnswer, error)
	// Delta applies one delta batch to the session.
	Delta(ctx context.Context, id string, deltas []spec.Delta) (DeltaAnswer, error)
}

// hashPlacement fingerprints placement bytes.
func hashPlacement(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// msSince is the wall time since start in milliseconds, at
// microsecond resolution.
func msSince(start time.Time) float64 {
	//lint:detsource measured latency is the point of this value
	return float64(time.Since(start).Microseconds()) / 1e3
}

// httpTarget drives a live daemon over HTTP.
type httpTarget struct {
	base   string
	client *http.Client
}

// NewHTTPTarget returns the target for the daemon at base
// (client nil = http.DefaultClient).
func NewHTTPTarget(base string, client *http.Client) Target {
	if client == nil {
		client = http.DefaultClient
	}
	return &httpTarget{base: strings.TrimSuffix(base, "/"), client: client}
}

func (t *httpTarget) Place(ctx context.Context, item WorkItem) Result {
	res, _ := t.post(ctx, "/v1/place", item.Body)
	return res
}

func (t *httpTarget) Create(ctx context.Context, item WorkItem) (string, DeltaAnswer, error) {
	return t.session(ctx, "/v1/session", item.Body)
}

func (t *httpTarget) Delta(ctx context.Context, id string, deltas []spec.Delta) (DeltaAnswer, error) {
	body, err := json.Marshal(daemon.DeltaRequest{Deltas: deltas})
	if err != nil {
		return DeltaAnswer{}, err
	}
	_, ans, err := t.session(ctx, "/v1/session/"+id+"/delta", body)
	return ans, err
}

// session posts one session-API request; an answer without a
// placement is an error.
func (t *httpTarget) session(ctx context.Context, path string, body []byte) (string, DeltaAnswer, error) {
	res, rep := t.post(ctx, path, body)
	if res.PlacementJSON == nil {
		return "", DeltaAnswer{}, fmt.Errorf("POST %s: HTTP %d %s: %s", path, res.Code, res.Status, res.Err)
	}
	return rep.SessionID, DeltaAnswer{Result: res, Path: rep.Path}, nil
}

// reply is the union of the daemon's response bodies: PlaceResponse,
// SessionResponse, and the error body.
type reply struct {
	TraceID   string          `json:"trace_id"`
	SessionID string          `json:"session_id"`
	Path      string          `json:"path"`
	Placement json.RawMessage `json:"placement"`
	Error     string          `json:"error"`
}

// post sends one request and reads the reply into a Result: the
// client-observed latency, the trace ID and Server-Timing phases, the
// outcome, and on success the placement bytes and their hash.
func (t *httpTarget) post(ctx context.Context, path string, body []byte) (Result, reply) {
	var rep reply
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(body))
	if err != nil {
		return Result{Status: "error", Err: err.Error()}, rep
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := t.client.Do(req)
	wallMS := msSince(start)
	if err != nil {
		return Result{Status: "error", WallMS: wallMS, Err: err.Error()}, rep
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return Result{Status: "error", WallMS: wallMS, Err: err.Error()}, rep
	}
	res := Result{
		Code:    resp.StatusCode,
		TraceID: resp.Header.Get("X-Rulefit-Trace-Id"),
		WallMS:  wallMS,
		Phases:  parseServerTiming(resp.Header.Get("Server-Timing")),
	}
	// A refusal keeps its status even when its body does not decode.
	decodeErr := json.Unmarshal(raw, &rep)
	if res.TraceID == "" {
		res.TraceID = rep.TraceID
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusCreated:
		var pl struct {
			Status string `json:"status"`
		}
		if decodeErr == nil {
			decodeErr = json.Unmarshal(rep.Placement, &pl)
		}
		if decodeErr != nil {
			res.Status, res.Err = "error", decodeErr.Error()
			break
		}
		res.Status = pl.Status
		res.PlacementJSON = bytes.TrimSpace(rep.Placement)
		res.PlacementHash = hashPlacement(res.PlacementJSON)
	case http.StatusTooManyRequests:
		res.Status, res.Err = "shed", rep.Error
	case http.StatusBadRequest:
		res.Status, res.Err = "bad_request", rep.Error
	default:
		res.Status, res.Err = "error", rep.Error
	}
	return res, rep
}

// parseServerTiming parses "name;dur=1.2, name2;dur=3" into phases,
// tolerating unknown parameters.
func parseServerTiming(h string) []PhaseMS {
	if h == "" {
		return nil
	}
	var out []PhaseMS
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		if parts[0] == "" {
			continue
		}
		p := PhaseMS{Name: parts[0]}
		for _, attr := range parts[1:] {
			if v, found := strings.CutPrefix(strings.TrimSpace(attr), "dur="); found {
				if ms, err := strconv.ParseFloat(v, 64); err == nil {
					p.MS = ms
				}
			}
		}
		out = append(out, p)
	}
	return out
}

// inprocTarget runs each request through the daemon's own decoder
// (daemon.DecodePlaceRequest: same spec build, validation and option
// policy), the library, and the daemon's wire encoding, without HTTP.
// Used by CI and as the byte-identity reference: a served placement
// must hash identically to the in-process answer for the same item.
type inprocTarget struct {
	defaultLimit time.Duration
	maxLimit     time.Duration
	sessions     *state.Manager
	seq          atomic.Uint64
}

// NewInProcessTarget returns the in-process target (zero limits pick
// the daemon defaults: 60s default, 10m cap).
func NewInProcessTarget(defaultLimit, maxLimit time.Duration) Target {
	return &inprocTarget{
		defaultLimit: defaultLimit,
		maxLimit:     maxLimit,
		sessions:     state.NewManager(state.Config{}),
	}
}

// request scopes one request the way the daemon does: a deterministic
// trace ID from its sequence number and body, and a span trace.
func (t *inprocTarget) request(body []byte) *obs.RequestCtx {
	return obs.NewRequestCtx(obs.TraceIDFor(t.seq.Add(1), body))
}

func (t *inprocTarget) Place(_ context.Context, item WorkItem) Result {
	start, req := time.Now(), t.request(item.Body)
	in, err := daemon.DecodePlaceRequest(item.Body, t.defaultLimit, t.maxLimit)
	if err != nil {
		return failed(req, start, http.StatusBadRequest, "bad_request", err)
	}
	opts := in.Options
	opts.Trace = req.Trace
	pl, err := core.Place(in.Problem, opts)
	if err != nil {
		return failed(req, start, http.StatusInternalServerError, "error", err)
	}
	return answer(req, start, pl)
}

func (t *inprocTarget) Create(_ context.Context, item WorkItem) (string, DeltaAnswer, error) {
	start, req := time.Now(), t.request(item.Body)
	in, err := daemon.DecodePlaceRequest(item.Body, t.defaultLimit, t.maxLimit)
	if err != nil {
		return "", DeltaAnswer{}, err
	}
	opts := in.Options
	opts.Trace = req.Trace
	sess, res, err := t.sessions.Create(in.SessionSpec(), opts)
	if err != nil {
		return "", DeltaAnswer{}, err
	}
	return sess.ID(), DeltaAnswer{Result: answer(req, start, res.Placement), Path: res.Path}, nil
}

func (t *inprocTarget) Delta(_ context.Context, id string, deltas []spec.Delta) (DeltaAnswer, error) {
	body, err := json.Marshal(daemon.DeltaRequest{Deltas: deltas})
	if err != nil {
		return DeltaAnswer{}, err
	}
	start, req := time.Now(), t.request(body)
	sess, err := t.sessions.Get(id)
	if err != nil {
		return DeltaAnswer{}, err
	}
	res, err := sess.Delta(deltas, req, nil)
	if err != nil {
		return DeltaAnswer{}, err
	}
	return DeltaAnswer{Result: answer(req, start, res.Placement), Path: res.Path}, nil
}

// answer projects a placement through the daemon's wire encoding, so
// its hash matches the HTTP answer byte for byte, and reads the phase
// walls the daemon would send as Server-Timing (daemon.PlacePhases).
func answer(req *obs.RequestCtx, start time.Time, pl *core.Placement) Result {
	placement, err := json.Marshal(daemon.EncodePlacement(pl))
	if err != nil {
		return failed(req, start, http.StatusInternalServerError, "error", err)
	}
	res := Result{
		TraceID:       req.TraceID,
		Code:          http.StatusOK,
		Status:        pl.Status.String(),
		PlacementJSON: placement,
		PlacementHash: hashPlacement(placement),
	}
	for _, ch := range daemon.PlacePhases(req.Trace) {
		res.Phases = append(res.Phases, PhaseMS{
			Name: ch.Name(),
			//lint:detsource measured phase wall time is the point of this field
			MS: float64(ch.Wall().Microseconds()) / 1e3,
		})
	}
	res.WallMS = msSince(start)
	return res
}

// failed is an in-process answer without a placement.
func failed(req *obs.RequestCtx, start time.Time, code int, status string, err error) Result {
	return Result{TraceID: req.TraceID, Code: code, Status: status, Err: err.Error(), WallMS: msSince(start)}
}
