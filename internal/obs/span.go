package obs

import (
	"fmt"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// Trace collects a forest of phase spans for one pipeline run. The zero
// value is not usable; NewTrace returns a ready Trace. All methods —
// including those of the Spans it hands out — are safe on nil
// receivers, so call sites never need tracing guards, and mutation is
// serialized by one mutex so concurrent goroutines may share a Trace.
//
//lint:nilsafe every exported method begins with a nil-receiver guard
type Trace struct {
	mu    sync.Mutex
	id    string
	roots []*Span
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// SetID attaches a trace ID (rendered as a header line and used to
// join spans with solver events and log lines). No-op on nil.
func (t *Trace) SetID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.id = id
	t.mu.Unlock()
}

// ID returns the attached trace ID ("" for nil or unset).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// Span starts a new top-level span. Returns nil (a safe no-op span)
// when the trace itself is nil.
func (t *Trace) Span(name string) *Span {
	if t == nil {
		return nil
	}
	sp := newSpan(t, name)
	t.mu.Lock()
	t.roots = append(t.roots, sp)
	t.mu.Unlock()
	return sp
}

// Roots returns the top-level spans in start order.
func (t *Trace) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Render prints the span forest as an indented text tree: wall time,
// allocated bytes, and counters per span.
func (t *Trace) Render() string {
	if t == nil {
		return ""
	}
	var sb strings.Builder
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.id != "" {
		fmt.Fprintf(&sb, "trace %s\n", t.id)
	}
	for _, sp := range t.roots {
		sp.render(&sb, 0)
	}
	return sb.String()
}

// Span is one timed pipeline phase: wall clock, heap allocation delta,
// ordered counters, and child spans. Spans are created via Trace.Span
// or Span.Child and closed with End; timing fields are observational
// only and excluded from determinism guarantees.
//
//lint:nilsafe every exported method begins with a nil-receiver guard
type Span struct {
	trace *Trace
	name  string
	start time.Time
	wall  time.Duration
	// allocs0/allocs are the cumulative heap-alloc byte readings at
	// start and the delta at End.
	allocs0  uint64
	allocs   uint64
	ended    bool
	counters []counter
	children []*Span
}

// counter is one named span counter, kept in insertion order.
type counter struct {
	name string
	val  int64
}

func newSpan(t *Trace, name string) *Span {
	return &Span{trace: t, name: name, start: time.Now(), allocs0: heapAllocBytes()}
}

// Child starts a nested span. Safe (and a no-op) on a nil receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	sp := newSpan(s.trace, name)
	s.trace.mu.Lock()
	s.children = append(s.children, sp)
	s.trace.mu.Unlock()
	return sp
}

// End closes the span, recording wall time and the heap-alloc delta.
// Ending twice keeps the first measurement.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	if !s.ended {
		s.ended = true
		s.wall = time.Since(s.start)
		if a := heapAllocBytes(); a >= s.allocs0 {
			s.allocs = a - s.allocs0
		}
	}
	s.trace.mu.Unlock()
}

// SetCount records (or overwrites) a named counter on the span.
// Counters carry deterministic per-phase quantities — node counts,
// simplex iterations, variable totals — alongside the timing fields.
func (s *Span) SetCount(name string, v int64) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	defer s.trace.mu.Unlock()
	for i := range s.counters {
		if s.counters[i].name == name {
			s.counters[i].val = v
			return
		}
	}
	s.counters = append(s.counters, counter{name, v})
}

// Wall returns the measured wall time (0 until End).
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.trace.mu.Lock()
	defer s.trace.mu.Unlock()
	return s.wall
}

// AllocBytes returns the heap bytes allocated during the span.
func (s *Span) AllocBytes() uint64 {
	if s == nil {
		return 0
	}
	s.trace.mu.Lock()
	defer s.trace.mu.Unlock()
	return s.allocs
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Children returns the child spans in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.trace.mu.Lock()
	defer s.trace.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Counter returns a named counter value (ok=false when unset).
func (s *Span) Counter(name string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.trace.mu.Lock()
	defer s.trace.mu.Unlock()
	for _, c := range s.counters {
		if c.name == name {
			return c.val, true
		}
	}
	return 0, false
}

// render appends the span subtree to sb. Caller holds the trace lock.
func (s *Span) render(sb *strings.Builder, depth int) {
	fmt.Fprintf(sb, "%s%-*s %10s %10s", strings.Repeat("  ", depth), 24-2*depth, s.name,
		fmtWall(s.wall), fmtBytes(s.allocs))
	for _, c := range s.counters {
		fmt.Fprintf(sb, "  %s=%d", c.name, c.val)
	}
	sb.WriteByte('\n')
	for _, ch := range s.children {
		ch.render(sb, depth+1)
	}
}

func fmtWall(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// heapAllocBytes reads the cumulative heap allocation counter. Uses
// runtime/metrics (no stop-the-world), so spans stay cheap enough to
// wrap sub-millisecond phases.
func heapAllocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}
