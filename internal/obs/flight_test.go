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
	for i := 1; i <= 5000; i++ {
		r.Event(Event{Kind: KindNode, Node: i})
	}
	d := r.Dump()
	if len(d.Events) != 4096 || d.Events[0].Node != 5000-4096+1 || d.Events[4095].Node != 5000 {
		t.Fatalf("default ring retained %d events (nodes %d..%d), want the last 4096",
			len(d.Events), d.Events[0].Node, d.Events[len(d.Events)-1].Node)
	}
}

// TestFlightRingAllocatesOnlyWhatItHolds: a ring offered a few events
// holds capacity for about those, not for Size, so a per-request
// recorder on an answer that runs no solve costs nothing.
func TestFlightRingAllocatesOnlyWhatItHolds(t *testing.T) {
	r := NewFlightRecorder(FlightOpts{Size: 4096})
	for i := 1; i <= 3; i++ {
		r.Event(Event{Kind: KindNode, Node: i})
	}
	if c := cap(r.ring); c > 8 {
		t.Fatalf("ring holding 3 events has capacity %d", c)
	}
	if empty := NewFlightRecorder(FlightOpts{Size: 4096}); cap(empty.ring) != 0 {
		t.Fatalf("ring holding no events has capacity %d", cap(empty.ring))
	}
}
