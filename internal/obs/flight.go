package obs

import (
	"io"
	"sync"
	"sync/atomic"
)

// FlightRecorder is an always-on Sink holding the most recent events in
// a bounded ring — the solver's black box. Unlike the JSONL trace
// (which must be enabled before a run and records everything), the
// recorder is cheap enough to leave attached in production: recording
// one event is a TryLock, a struct copy into a slot, and two counter
// bumps. The ring grows by doubling until it holds Size events and
// then wraps, so a recorder that sees few events (a request whose
// answer runs no solve) allocates only for those. When the lock is
// contended — a Dump in progress, or concurrent solves sharing one
// recorder — the event is dropped rather than waited for, and the drop
// is counted. The recorder therefore degrades (loses events) under
// pressure instead of adding latency, which is the right trade for a
// diagnostic tail buffer.
//
// The solver's contract is unchanged: the recorder is a Sink, nothing
// is read back, and a solve with a recorder attached returns bytes
// identical to one without (TestPlaceFlightRecorderDoesNotPerturb).
type FlightRecorder struct {
	mu   sync.Mutex
	size int     // ring capacity in events
	ring []Event // grows to size, then wraps
	next int     // ring index of the oldest event, overwritten next once the ring is full

	seen    atomic.Uint64 // events offered to the recorder
	dropped atomic.Uint64 // events lost to lock contention
}

// FlightOpts sizes a FlightRecorder. The zero value is NOT a valid
// production configuration — state Size explicitly (the optzero
// analyzer flags literals that leave it unset) so the retention window
// is a deliberate choice; NewFlightRecorder applies defaults for tests.
type FlightOpts struct {
	// Size is the ring capacity in events (default 4096). The ring keeps
	// the most recent Size events; older ones are overwritten.
	Size int
}

// NewFlightRecorder returns a recorder with the given ring size.
func NewFlightRecorder(opts FlightOpts) *FlightRecorder {
	if opts.Size <= 0 {
		opts.Size = 4096
	}
	return &FlightRecorder{size: opts.Size}
}

// Event records one event, or drops it if the ring is contended.
func (r *FlightRecorder) Event(e Event) {
	r.seen.Add(1)
	if !r.mu.TryLock() {
		r.dropped.Add(1)
		return
	}
	if len(r.ring) < r.size {
		if len(r.ring) == cap(r.ring) {
			// Double, capped at size, so a ring that fills costs at most
			// twice its final allocation; append's 1.25x growth past 256
			// elements would cost nearly four times.
			grown := make([]Event, len(r.ring), min(max(2*len(r.ring), 1), r.size))
			copy(grown, r.ring)
			r.ring = grown //lint:sharedmut r.mu is held: the TryLock above succeeded or we returned
		}
		r.ring = append(r.ring, e) //lint:sharedmut r.mu is held: the TryLock above succeeded or we returned
	} else {
		r.ring[r.next] = e
		r.next = (r.next + 1) % r.size //lint:sharedmut r.mu is held: the TryLock above succeeded or we returned
	}
	r.mu.Unlock()
}

// FlightDump is a point-in-time copy of the recorder's contents plus
// its loss accounting. Seen >= len(Events): the difference is events
// overwritten by the ring or dropped under contention.
type FlightDump struct {
	// Events holds the retained events, oldest first.
	Events []Event
	// Seen counts every event offered to the recorder since creation.
	Seen uint64
	// Dropped counts events lost to lock contention (a Dump in
	// progress, or concurrent solves sharing the recorder).
	Dropped uint64
}

// Dump snapshots the ring. It takes the lock (blocking), so concurrent
// Event calls during the copy count as dropped rather than stalling a
// solve.
func (r *FlightRecorder) Dump() FlightDump {
	r.mu.Lock()
	d := FlightDump{
		Seen:    r.seen.Load(),
		Dropped: r.dropped.Load(),
	}
	d.Events = make([]Event, 0, len(r.ring))
	d.Events = append(d.Events, r.ring[r.next:]...)
	d.Events = append(d.Events, r.ring[:r.next]...)
	r.mu.Unlock()
	return d
}

// WriteJSONL writes the dump as a JSONL stream readable by
// obs.ReadEvents and summarizable by obs/traceview: a flight_meta
// header line carrying the loss accounting, then the retained events
// oldest first. Partial by construction — the ring holds a tail of the
// stream — so traceview treats the meta line as permission to relax
// its completeness checks.
func (d FlightDump) WriteJSONL(w io.Writer) error {
	jw := NewJSONLWriter(w)
	jw.Event(Event{Kind: KindFlightMeta, Node: len(d.Events),
		Seen: int(d.Seen), Dropped: int(d.Dropped), BranchVar: -1, Gap: -1})
	for _, e := range d.Events {
		jw.Event(e)
	}
	return jw.Flush()
}
