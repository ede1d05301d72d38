package obs

import (
	"sync"
	"testing"
)

// TestProgressFoldsEvents drives one Progress through a solve's event
// stream, then into a second solve, checking the whole snapshot after
// every event.
func TestProgressFoldsEvents(t *testing.T) {
	const id = "req-000001-00000000deadbeef"
	p := NewProgress(id)
	if got, want := p.Snapshot(), (ProgressSnapshot{TraceID: id, Phase: "admitted", Gap: -1}); got != want {
		t.Fatalf("fresh view = %+v, want %+v", got, want)
	}
	steps := []struct {
		name string
		e    Event
		want ProgressSnapshot
	}{
		{"start opens a fresh view",
			Event{Kind: KindStart, Gap: -1, TimeMS: 1},
			ProgressSnapshot{TraceID: id, Phase: "root_lp", Gap: -1, ElapsedMS: 1}},
		{"root_lp enters search at the raw root bound",
			Event{Kind: KindRootLP, Bound: 6.4, Gap: -1, TimeMS: 2},
			ProgressSnapshot{TraceID: id, Phase: "search", BestBound: 6.4, Gap: -1, ElapsedMS: 2}},
		{"pseudocost_init moves only the clock",
			Event{Kind: KindPseudocostInit, Node: 1, Iters: 40, Gap: -1, TimeMS: 2.5},
			ProgressSnapshot{TraceID: id, Phase: "search", BestBound: 6.4, Gap: -1, ElapsedMS: 2.5}},
		{"node 1 carries the ceiled root bound",
			Event{Kind: KindNode, Node: 1, Bound: 7, Gap: -1, TimeMS: 3},
			ProgressSnapshot{TraceID: id, Phase: "search", Nodes: 1, BestBound: 7, Gap: -1, ElapsedMS: 3}},
		{"a later node moves only the count",
			Event{Kind: KindNode, Node: 2, Bound: 7.5, Gap: -1, TimeMS: 4},
			ProgressSnapshot{TraceID: id, Phase: "search", Nodes: 2, BestBound: 7, Gap: -1, ElapsedMS: 4}},
		{"incumbent",
			Event{Kind: KindIncumbent, Node: 2, Incumbent: 9, Gap: -1, TimeMS: 4.5},
			ProgressSnapshot{TraceID: id, Phase: "search", Nodes: 2, Incumbent: 9, HaveIncumbent: true,
				BestBound: 7, Gap: -1, Incumbents: 1, ElapsedMS: 4.5}},
		{"gap sets nodes, bound and gap",
			Event{Kind: KindGap, Node: 16, Incumbent: 9, BestBound: 7.5, Gap: 1.5 / 9, TimeMS: 5},
			ProgressSnapshot{TraceID: id, Phase: "search", Nodes: 16, Incumbent: 9, HaveIncumbent: true,
				BestBound: 7.5, Gap: 1.5 / 9, Incumbents: 1, ElapsedMS: 5}},
		{"skip moves only the clock",
			Event{Kind: KindSkip, Bound: 9, Gap: -1, TimeMS: 5.5},
			ProgressSnapshot{TraceID: id, Phase: "search", Nodes: 16, Incumbent: 9, HaveIncumbent: true,
				BestBound: 7.5, Gap: 1.5 / 9, Incumbents: 1, ElapsedMS: 5.5}},
		{"a better incumbent",
			Event{Kind: KindIncumbent, Node: 17, Incumbent: 8, Gap: -1, TimeMS: 6},
			ProgressSnapshot{TraceID: id, Phase: "search", Nodes: 16, Incumbent: 8, HaveIncumbent: true,
				BestBound: 7.5, Gap: 1.5 / 9, Incumbents: 2, ElapsedMS: 6}},
		{"done closes the view",
			Event{Kind: KindDone, Node: 20, Outcome: "optimal", Incumbent: 8, BestBound: 8, Gap: 0, TimeMS: 7},
			ProgressSnapshot{TraceID: id, Phase: "done", Nodes: 20, Incumbent: 8, HaveIncumbent: true,
				BestBound: 8, Gap: 0, Incumbents: 2, ElapsedMS: 7, Done: true}},
		{"the next solve's start opens a fresh view",
			Event{Kind: KindStart, Gap: -1, TimeMS: 0.5},
			ProgressSnapshot{TraceID: id, Phase: "root_lp", Gap: -1, ElapsedMS: 0.5}},
		{"an infeasible done keeps gap -1 and no incumbent",
			Event{Kind: KindDone, Outcome: "infeasible", Gap: -1, TimeMS: 0.75},
			ProgressSnapshot{TraceID: id, Phase: "done", Gap: -1, ElapsedMS: 0.75, Done: true}},
	}
	for _, st := range steps {
		p.Event(st.e)
		//lint:exactfloat the fold copies event fields, so the snapshot must match them exactly
		if got := p.Snapshot(); got != st.want {
			t.Fatalf("%s:\n got %+v\nwant %+v", st.name, got, st.want)
		}
	}
	e := Event{Kind: KindNode, Node: 5, Bound: 4, Gap: -1, TimeMS: 9}
	if n := testing.AllocsPerRun(100, func() { p.Event(e) }); n != 0 {
		t.Fatalf("Event allocates %v times per call, want 0", n)
	}
}

// TestProgressConcurrentReaders hammers one writer against many
// readers; under -race the view must be clean, and each reader must see
// the node count only grow within the written range.
func TestProgressConcurrentReaders(t *testing.T) {
	p := NewProgress("req-000002-0000000000000001")
	const max = 1000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= max; i++ {
			p.Event(Event{Kind: KindNode, Node: i, Gap: -1})
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for i := 0; i < 2000; i++ {
				s := p.Snapshot()
				if s.Nodes < last || s.Nodes > max {
					t.Errorf("torn or stale snapshot after nodes=%d: %+v", last, s)
					return
				}
				last = s.Nodes
			}
		}()
	}
	<-done
	wg.Wait()
}
