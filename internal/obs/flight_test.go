package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestFlightRingWraparound(t *testing.T) {
	r := NewFlightRecorder(FlightOpts{Size: 4})
	for i := 1; i <= 10; i++ {
		r.Event(Event{Kind: KindNode, Node: i})
	}
	d := r.Dump()
	if len(d.Events) != 4 {
		t.Fatalf("retained %d events, want ring size 4", len(d.Events))
	}
	// Oldest first: nodes 7, 8, 9, 10.
	for i, e := range d.Events {
		if want := 7 + i; e.Node != want {
			t.Fatalf("event %d has node %d, want %d (ring not oldest-first)", i, e.Node, want)
		}
	}
	if d.Seen != 10 {
		t.Fatalf("Seen = %d, want 10", d.Seen)
	}
	if d.Dropped != 0 {
		t.Fatalf("unexpected loss accounting: dropped=%d", d.Dropped)
	}
}

func TestFlightRingPartialFill(t *testing.T) {
	r := NewFlightRecorder(FlightOpts{Size: 8})
	for i := 1; i <= 3; i++ {
		r.Event(Event{Kind: KindNode, Node: i})
	}
	d := r.Dump()
	if len(d.Events) != 3 {
		t.Fatalf("retained %d events before wrap, want 3", len(d.Events))
	}
	for i, e := range d.Events {
		if e.Node != i+1 {
			t.Fatalf("event %d has node %d, want %d", i, e.Node, i+1)
		}
	}
}

func TestFlightRingDroppedUnderContention(t *testing.T) {
	r := NewFlightRecorder(FlightOpts{Size: 4})
	r.Event(Event{Kind: KindNode, Node: 1})
	// Hold the ring lock as Dump would; every offer must drop, not block.
	r.mu.Lock()
	for i := 0; i < 5; i++ {
		r.Event(Event{Kind: KindNode, Node: 100 + i})
	}
	r.mu.Unlock()
	d := r.Dump()
	if d.Dropped != 5 {
		t.Fatalf("Dropped = %d, want 5", d.Dropped)
	}
	if d.Seen != 6 {
		t.Fatalf("Seen = %d, want 6", d.Seen)
	}
	if len(d.Events) != 1 || d.Events[0].Node != 1 {
		t.Fatalf("ring contents perturbed by dropped events: %+v", d.Events)
	}
}

// TestFlightRingDumpWhileRecording exercises the Dump-vs-Event race the
// recorder is designed around: under -race this must be clean, and the
// loss accounting must balance — every offered event is either retained,
// overwritten (ring) or dropped; none vanish unaccounted.
func TestFlightRingDumpWhileRecording(t *testing.T) {
	r := NewFlightRecorder(FlightOpts{Size: 32})
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Event(Event{Kind: KindNode, Node: w*perWriter + i})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			d := r.Dump()
			if uint64(len(d.Events)) > d.Seen {
				t.Errorf("dump retained %d events but only %d seen", len(d.Events), d.Seen)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	d := r.Dump()
	if d.Seen != writers*perWriter {
		t.Fatalf("Seen = %d, want %d", d.Seen, writers*perWriter)
	}
	if d.Dropped > d.Seen {
		t.Fatalf("loss accounting exceeds offers: dropped=%d seen=%d", d.Dropped, d.Seen)
	}
}

func TestFlightDumpWriteJSONL(t *testing.T) {
	r := NewFlightRecorder(FlightOpts{Size: 4})
	for i := 1; i <= 6; i++ {
		r.Event(Event{Kind: KindNode, Node: i, Gap: -1, BranchVar: -1})
	}
	var buf bytes.Buffer
	if err := r.Dump().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("read %d lines, want 5 (meta header + 4 retained)", len(got))
	}
	meta := got[0]
	if meta.Kind != KindFlightMeta {
		t.Fatalf("first line kind %q, want %q", meta.Kind, KindFlightMeta)
	}
	if meta.Node != 4 || meta.Seen != 6 {
		t.Fatalf("meta retained=%d seen=%d, want 4/6", meta.Node, meta.Seen)
	}
	for i, e := range got[1:] {
		if want := 3 + i; e.Node != want {
			t.Fatalf("retained event %d has node %d, want %d", i, e.Node, want)
		}
	}
}

func TestFlightOptsDefaults(t *testing.T) {
	r := NewFlightRecorder(FlightOpts{Size: -1})
	if len(r.ring) != 4096 {
		t.Fatalf("default ring size %d, want 4096", len(r.ring))
	}
}

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.Publish(ProgressSnapshot{Phase: "search"}) // must not panic
	if s, ok := p.Snapshot(); ok || s != (ProgressSnapshot{}) {
		t.Fatalf("nil Progress returned a snapshot: %+v", s)
	}
}

func TestProgressPublishSnapshot(t *testing.T) {
	var p Progress
	if _, ok := p.Snapshot(); ok {
		t.Fatal("fresh Progress reported a snapshot before any Publish")
	}
	p.Publish(ProgressSnapshot{Phase: "root_lp", Nodes: 0, Gap: -1})
	p.Publish(ProgressSnapshot{Phase: "search", Nodes: 12, Incumbent: 7, HaveIncumbent: true, Gap: 0.25})
	s, ok := p.Snapshot()
	if !ok {
		t.Fatal("Snapshot reported none after Publish")
	}
	if s.Phase != "search" || s.Nodes != 12 || !s.HaveIncumbent || s.Gap != 0.25 {
		t.Fatalf("snapshot did not reflect latest publish: %+v", s)
	}
}

// TestProgressConcurrentReaders hammers one writer against many readers;
// under -race the atomic pointer cell must be clean and every observed
// snapshot internally consistent (Nodes never exceeds the published max).
func TestProgressConcurrentReaders(t *testing.T) {
	var p Progress
	const max = 1000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i <= max; i++ {
			p.Publish(ProgressSnapshot{Phase: "search", Nodes: i})
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if s, ok := p.Snapshot(); ok && (s.Nodes < 0 || s.Nodes > max) {
					t.Errorf("torn snapshot: %+v", s)
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()
}
