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

// Placer issues one workload item and reports the outcome. Both
// implementations fill the same Result fields, so reports from HTTP
// and in-process runs diff against each other.
type Placer interface {
	Place(ctx context.Context, item WorkItem) Result
}

// hashPlacement fingerprints placement bytes.
func hashPlacement(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// httpPlacer replays against a live daemon over HTTP.
type httpPlacer struct {
	base   string
	client *http.Client
}

// NewHTTPPlacer returns a placer posting to base+"/v1/place"
// (client nil = http.DefaultClient).
func NewHTTPPlacer(base string, client *http.Client) Placer {
	if client == nil {
		client = http.DefaultClient
	}
	return &httpPlacer{base: strings.TrimSuffix(base, "/"), client: client}
}

func (p *httpPlacer) Place(ctx context.Context, item WorkItem) Result {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+"/v1/place", bytes.NewReader(item.Body))
	if err != nil {
		return Result{Status: "error", Err: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := p.client.Do(req)
	//lint:detsource measured latency is the point of this field
	wallMS := float64(time.Since(start).Microseconds()) / 1e3
	if err != nil {
		return Result{Status: "error", WallMS: wallMS, Err: err.Error()}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return Result{Status: "error", WallMS: wallMS, Err: err.Error()}
	}
	res := Result{
		Code:    resp.StatusCode,
		TraceID: resp.Header.Get("X-Rulefit-Trace-Id"),
		WallMS:  wallMS,
		Phases:  parseServerTiming(resp.Header.Get("Server-Timing")),
	}
	if resp.StatusCode == http.StatusOK {
		var ok struct {
			TraceID   string          `json:"trace_id"`
			Placement json.RawMessage `json:"placement"`
		}
		if err := json.Unmarshal(body, &ok); err != nil {
			res.Status, res.Err = "error", err.Error()
			return res
		}
		if res.TraceID == "" {
			res.TraceID = ok.TraceID
		}
		var pl struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(ok.Placement, &pl); err != nil {
			res.Status, res.Err = "error", err.Error()
			return res
		}
		res.Status = pl.Status
		res.PlacementJSON = bytes.TrimSpace(ok.Placement)
		res.PlacementHash = hashPlacement(res.PlacementJSON)
		return res
	}
	var eresp struct {
		TraceID string `json:"trace_id"`
		Error   string `json:"error"`
	}
	_ = json.Unmarshal(body, &eresp)
	if res.TraceID == "" {
		res.TraceID = eresp.TraceID
	}
	res.Err = eresp.Error
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		res.Status = "shed"
	case http.StatusBadRequest:
		res.Status = "bad_request"
	default:
		res.Status = "error"
	}
	return res
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

// inprocPlacer replays through core.Place directly, decoding each
// item with the daemon's own decoder (daemon.DecodePlaceRequest: same
// spec build, validation and option policy) and projecting through the
// same wire encoding, without HTTP. Used by CI and as the
// byte-identity reference: a served placement must hash identically
// to the in-process placement of the same item.
type inprocPlacer struct {
	defaultLimit time.Duration
	maxLimit     time.Duration
	seq          atomic.Uint64
}

// NewInProcessPlacer returns the in-process placer (zero limits pick
// the daemon defaults: 60s default, 10m cap).
func NewInProcessPlacer(defaultLimit, maxLimit time.Duration) Placer {
	return &inprocPlacer{defaultLimit: defaultLimit, maxLimit: maxLimit}
}

func (p *inprocPlacer) Place(_ context.Context, item WorkItem) Result {
	start := time.Now()
	finish := func(res Result) Result {
		//lint:detsource measured latency is the point of this field
		res.WallMS = float64(time.Since(start).Microseconds()) / 1e3
		return res
	}
	traceID := obs.TraceIDFor(p.seq.Add(1), item.Body)
	res := Result{TraceID: traceID}
	in, err := daemon.DecodePlaceRequest(item.Body, p.defaultLimit, p.maxLimit)
	if err != nil {
		res.Code, res.Status, res.Err = http.StatusBadRequest, "bad_request", err.Error()
		return finish(res)
	}
	opts := in.Options
	opts.Trace = obs.NewTrace()
	pl, err := core.Place(in.Problem, opts)
	if err != nil {
		res.Code, res.Status, res.Err = http.StatusInternalServerError, "error", err.Error()
		return finish(res)
	}
	placement, err := json.Marshal(daemon.EncodePlacement(pl))
	if err != nil {
		res.Code, res.Status, res.Err = http.StatusInternalServerError, "error", err.Error()
		return finish(res)
	}
	res.Code, res.Status = http.StatusOK, pl.Status.String()
	res.PlacementJSON = placement
	res.PlacementHash = hashPlacement(placement)
	for _, root := range opts.Trace.Roots() {
		if root.Name() != "place" {
			continue
		}
		for _, ch := range root.Children() {
			res.Phases = append(res.Phases, PhaseMS{
				Name: ch.Name(),
				//lint:detsource measured phase wall time is the point of this field
				MS: float64(ch.Wall().Microseconds()) / 1e3,
			})
		}
	}
	return finish(res)
}
