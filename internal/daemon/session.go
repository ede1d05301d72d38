package daemon

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/obs"
	"rulefit/internal/spec"
	"rulefit/internal/state"
)

// Session API (the stateful delta path):
//
//	POST   /v1/session            create a session from a PlaceRequest
//	GET    /v1/session/{id}       current version + placement
//	POST   /v1/session/{id}/delta apply a delta batch, re-solve
//	DELETE /v1/session/{id}       drop the session
//
// Every delta answer is byte-identical to a cold /v1/place of the
// fully-updated instance (the diffcheck delta oracle enforces this);
// the session only changes how fast the answer arrives, via the
// identity/warm/cold fallback ladder in internal/state.

// DeltaRequest is the POST /v1/session/{id}/delta body.
type DeltaRequest struct {
	Deltas []spec.Delta `json:"deltas"`
}

// SessionResponse is the create/get/delta reply. Placement carries
// the same determinism contract as PlaceResponse; SessionID, Version,
// Path, Cache, and WallMS are session bookkeeping.
type SessionResponse struct {
	TraceID   string `json:"trace_id"`
	SessionID string `json:"session_id"`
	Version   uint64 `json:"version"`
	// Path is the fallback-ladder level that answered ("identity",
	// "warm", "cold"); empty on GET.
	Path string `json:"path,omitempty"`
	//lint:detsource measured latency is the point of this field
	WallMS float64 `json:"wall_ms"`
	// Cache reports the encode-cache lookups this answer consumed.
	Cache core.EncodeCacheStats `json:"cache"`
	// Solutions reports the per-policy fragment-cache lookups this
	// answer consumed (decomposed solve path only).
	Solutions core.SolutionCacheStats `json:"solutions"`
	Placement Placement               `json:"placement"`
}

// sessionDeleteResponse is the DELETE /v1/session/{id} reply.
type sessionDeleteResponse struct {
	TraceID   string `json:"trace_id"`
	SessionID string `json:"session_id"`
	Deleted   bool   `json:"deleted"`
}

// handleSessionCreate serves POST /v1/session: it decodes a
// PlaceRequest, normalizes the instance to fully explicit spec form,
// runs the initial cold solve, and returns the session ID.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.serveSolve(w, r, "session_create", func(body []byte) (solveFunc, error) {
		in, err := s.decodePlace(body)
		if err != nil {
			return nil, err
		}
		explicit := in.SessionSpec()
		return func(req *obs.RequestCtx, sink obs.Sink, st *requestState) error {
			opts := in.Options
			opts.Request, opts.SolverSink = req, sink
			sess, res, err := s.sessions.Create(explicit, opts)
			if err != nil {
				return err
			}
			s.met.Sessions().Set(int64(s.sessions.Len()))
			s.sessionAnswer(st, http.StatusCreated, sess, res)
			return nil
		}, nil
	})
}

// handleSessionDelta serves POST /v1/session/{id}/delta.
func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request, id string) {
	s.serveSolve(w, r, "session_delta", func(body []byte) (solveFunc, error) {
		var dr DeltaRequest
		if err := decodeStrict(body, &dr); err != nil {
			return nil, err
		}
		sess, err := s.sessions.Get(id)
		if err != nil {
			return nil, err
		}
		return func(req *obs.RequestCtx, sink obs.Sink, st *requestState) error {
			res, err := sess.Delta(dr.Deltas, req, sink)
			if err != nil {
				return err
			}
			s.met.RecordDelta(res.Path)
			s.sessionAnswer(st, http.StatusOK, sess, res)
			return nil
		}, nil
	})
}

// sessionAnswer fills st with a session solve's reply and folds the
// solve's cache lookups into the metrics.
func (s *Server) sessionAnswer(st *requestState, code int, sess *state.Session, res *state.Result) {
	s.met.RecordEncodeCache("policy", res.CacheStats.PolicyHits, res.CacheStats.PolicyMisses)
	s.met.RecordEncodeCache("merge", res.CacheStats.MergeHits, res.CacheStats.MergeMisses)
	s.met.RecordEncodeCache("solution", res.SolStats.Hits, res.SolStats.Misses)
	st.code, st.placement = code, res.Placement
	st.body = &SessionResponse{
		TraceID:   st.traceID,
		SessionID: sess.ID(),
		Version:   res.Version,
		Path:      res.Path,
		Cache:     res.CacheStats,
		Solutions: res.SolStats,
		Placement: EncodePlacement(res.Placement),
	}
}

// handleSession routes /v1/session/{id} and /v1/session/{id}/delta.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/session/")
	parts := strings.Split(rest, "/")
	switch {
	case len(parts) == 1 && parts[0] != "":
		switch r.Method {
		case http.MethodGet:
			s.handleSessionGet(w, r, parts[0])
		case http.MethodDelete:
			s.handleSessionDelete(w, r, parts[0])
		default:
			w.Header().Set("Allow", "GET, DELETE")
			http.Error(w, "GET or DELETE only", http.StatusMethodNotAllowed)
		}
	case len(parts) == 2 && parts[0] != "" && parts[1] == "delta":
		s.handleSessionDelta(w, r, parts[0])
	default:
		http.NotFound(w, r)
	}
}

// handleSessionGet serves GET /v1/session/{id}: the current version
// and placement, no solve.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request, id string) {
	traceID := obs.TraceIDFor(s.seq.Add(1), []byte(r.URL.Path))
	st := requestState{traceID: traceID, op: "session_get", start: time.Now()}
	sess, err := s.sessions.Get(id)
	if err != nil {
		st.fail(err, http.StatusNotFound)
		s.finish(w, r, st)
		return
	}
	version, pl, _ := sess.Snapshot()
	st.code, st.status = http.StatusOK, pl.Status.String()
	st.body = &SessionResponse{
		TraceID:   traceID,
		SessionID: sess.ID(),
		Version:   version,
		Cache:     sess.CacheStats(),
		Solutions: sess.SolutionStats(),
		Placement: EncodePlacement(pl),
	}
	s.finish(w, r, st)
}

// handleSessionDelete serves DELETE /v1/session/{id}.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request, id string) {
	traceID := obs.TraceIDFor(s.seq.Add(1), []byte(r.URL.Path))
	st := requestState{traceID: traceID, op: "session_delete", start: time.Now()}
	if !s.sessions.Delete(id) {
		st.fail(fmt.Errorf("%w: %s", state.ErrNoSession, id), http.StatusNotFound)
		s.finish(w, r, st)
		return
	}
	s.met.Sessions().Set(int64(s.sessions.Len()))
	st.code, st.status = http.StatusOK, "deleted"
	st.body = &sessionDeleteResponse{TraceID: traceID, SessionID: id, Deleted: true}
	s.finish(w, r, st)
}
