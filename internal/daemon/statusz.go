package daemon

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"rulefit/internal/obs"
)

// secRing is a sliding-rate counter: a ring of one-second slots,
// lazily advanced to the current second on every touch (no ticker
// goroutine). The ring is sized for the longest window it serves
// (300 slots for the 5m rate). Internal addAt/sumAt take an explicit
// second so tests drive time directly.
type secRing struct {
	mu      sync.Mutex
	slots   []int64
	lastSec int64
}

// newSecRing returns a ring of n one-second slots.
func newSecRing(n int) *secRing { return &secRing{slots: make([]int64, n)} }

// addAt adds n to the slot for the given unix second. Seconds behind
// the ring's frontier are clamped to it: an out-of-order add (clock
// hiccup, a request finishing as another advances the ring) must land
// in the current window, never in a slot a future advance will zero —
// or worse, a "future" slot that silently inflates next window's sum.
func (r *secRing) addAt(sec, n int64) {
	r.mu.Lock()
	r.advance(sec)
	if sec < r.lastSec {
		sec = r.lastSec
	}
	r.slots[sec%int64(len(r.slots))] += n
	r.mu.Unlock()
}

// advance zeroes the slots for seconds elapsed since the last touch,
// so stale contributions never leak into a window sum. Caller holds mu.
func (r *secRing) advance(sec int64) {
	if r.lastSec == 0 || sec <= r.lastSec {
		if r.lastSec == 0 {
			r.lastSec = sec //lint:sharedmut locked-section helper; every caller holds r.mu
		}
		return
	}
	gap := sec - r.lastSec
	if gap > int64(len(r.slots)) {
		gap = int64(len(r.slots))
	}
	for i := int64(1); i <= gap; i++ {
		r.slots[(r.lastSec+i)%int64(len(r.slots))] = 0
	}
	r.lastSec = sec //lint:sharedmut locked-section helper; every caller holds r.mu
}

// sumAt sums the window-many most recent slots ending at sec. The
// advance-on-read keeps an idle ring honest: slots for the elapsed gap
// are zeroed before summing, so a burst of requests followed by
// minutes of silence reads as zero, not as the stale burst. A sec
// behind the frontier reads at the frontier (same clamp as addAt).
func (r *secRing) sumAt(sec int64, window int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advance(sec)
	if sec < r.lastSec {
		sec = r.lastSec
	}
	if window > len(r.slots) {
		window = len(r.slots)
	}
	var sum int64
	for i := 0; i < window; i++ {
		sum += r.slots[(sec-int64(i))%int64(len(r.slots))]
	}
	return sum
}

// statusRingSlots sizes the rate rings for the longest /statusz
// window (5 minutes of one-second slots).
const statusRingSlots = 300

// StatusSnapshot is the /statusz JSON body: instantaneous saturation
// gauges (in-flight, queue depth, configured limits) plus sliding
// 1m/5m request and shed counts and rates. All fields are
// observational; none feed back into placement.
type StatusSnapshot struct {
	InFlight    int64 `json:"in_flight"`
	QueueDepth  int64 `json:"queue_depth"`
	MaxInFlight int   `json:"max_in_flight"`
	MaxQueue    int   `json:"max_queue"`
	//lint:detsource uptime is an operational reading, not a placement input
	UptimeSec  float64 `json:"uptime_sec"`
	Requests1m int64   `json:"requests_1m"`
	Requests5m int64   `json:"requests_5m"`
	Shed1m     int64   `json:"shed_1m"`
	Shed5m     int64   `json:"shed_5m"`
	// ShedRate1m/5m are shed requests over total requests in the
	// window (0 when the window saw no requests).
	ShedRate1m float64 `json:"shed_rate_1m"`
	ShedRate5m float64 `json:"shed_rate_5m"`
	// PhaseExemplars names, per request phase, the trace whose
	// observation was slowest: the request behind the top bucket of
	// /metrics' rulefit_request_phase_seconds.
	PhaseExemplars []obs.PhaseExemplar `json:"phase_exemplars,omitempty"`
}

// statusAt assembles the snapshot for the given unix second.
func (s *Server) statusAt(sec int64, uptime time.Duration) StatusSnapshot {
	snap := StatusSnapshot{
		InFlight:    s.met.InFlight().Value(),
		QueueDepth:  s.met.QueueDepth().Value(),
		MaxInFlight: s.cfg.MaxInFlight,
		MaxQueue:    s.cfg.MaxQueue,
		//lint:detsource uptime is an operational reading, not a placement input
		UptimeSec:  uptime.Seconds(),
		Requests1m: s.reqRing.sumAt(sec, 60),
		Requests5m: s.reqRing.sumAt(sec, 300),
		Shed1m:     s.shedRing.sumAt(sec, 60),
		Shed5m:     s.shedRing.sumAt(sec, 300),
	}
	if snap.Requests1m > 0 {
		snap.ShedRate1m = float64(snap.Shed1m) / float64(snap.Requests1m)
	}
	if snap.Requests5m > 0 {
		snap.ShedRate5m = float64(snap.Shed5m) / float64(snap.Requests5m)
	}
	snap.PhaseExemplars = s.met.PhaseExemplars()
	return snap
}

// handleStatusz serves the saturation/rate snapshot as JSON.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	now := s.now()
	snap := s.statusAt(now.Unix(), now.Sub(s.started))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "statusz",
			slog.String("error", err.Error()))
	}
}
