// Package traceview summarizes JSONL solver traces produced by the
// obs.JSONLWriter sink: prune-reason histogram, gap-convergence table,
// solver effort, and an internal-consistency check (the node events'
// outcomes must sum to the done events' node total).
package traceview

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"rulefit/internal/obs"
)

// GapPoint is one row of the gap-convergence table.
type GapPoint struct {
	Nodes     int     `json:"nodes"`
	Incumbent float64 `json:"incumbent"`
	BestBound float64 `json:"best_bound"`
	Gap       float64 `json:"gap"`
	TimeMS    float64 `json:"time_ms"`
}

// Summary aggregates one solver trace. A placement runs at most one
// ILP solve, so a per-answer trace holds one solve or none (a certified
// decomposition, an encode-proven infeasibility or the SAT backend
// emits no event); a trace shared by several answers holds several.
// Nodes, SimplexIters and LURefactors are the done events' totals
// summed over solves, which count strong-branch trials and a root LP
// that ends its solve. A partial dump may have lost its done events,
// so it reports the node events it retained and the iterations and
// refactorizations those and the root_lp events carry.
type Summary struct {
	Events       int            `json:"events"`
	Nodes        int            `json:"nodes"`
	Outcomes     map[string]int `json:"outcomes"`
	StaleSkips   int            `json:"stale_skips"`
	Incumbents   int            `json:"incumbents"`
	RootBound    float64        `json:"root_bound"`
	SimplexIters int            `json:"simplex_iters"`
	LURefactors  int            `json:"lu_refactors"`
	GapCurve     []GapPoint     `json:"gap_curve"`
	FinalStatus  string         `json:"final_status"`
	StopReason   string         `json:"stop_reason"`
	FinalObj     float64        `json:"final_obj"`
	FinalBound   float64        `json:"final_bound"`
	FinalGap     float64        `json:"final_gap"`
	MaxDepth     int            `json:"max_depth"`
	// Partial marks a flight-recorder ring dump: the trace is the tail
	// of the event stream, so a missing done event is expected and the
	// loss accounting below says how much is gone.
	Partial       bool `json:"partial,omitempty"`
	SeenEvents    int  `json:"seen_events,omitempty"`
	DroppedEvents int  `json:"dropped_events,omitempty"`
	hasDone       bool
}

// effort is one way of counting a trace's nodes, simplex iterations
// and LU refactorizations.
type effort struct{ nodes, iters, refactors int }

// Summarize reads a JSONL trace and aggregates it.
func Summarize(r io.Reader) (*Summary, error) {
	events, err := obs.ReadEvents(r)
	if err != nil {
		return nil, err
	}
	return Of(events), nil
}

// Of aggregates an in-memory event slice.
func Of(events []obs.Event) *Summary {
	s := &Summary{Outcomes: map[string]int{}, FinalGap: -1}
	var perEvent, done effort
	for _, e := range events {
		s.Events++
		switch e.Kind {
		case obs.KindRootLP:
			s.RootBound = e.Bound
			perEvent.iters += e.Iters
			perEvent.refactors += e.Refactors
		case obs.KindNode:
			s.Outcomes[e.Outcome]++
			perEvent.nodes++
			perEvent.iters += e.Iters
			perEvent.refactors += e.Refactors
			if e.Depth > s.MaxDepth {
				s.MaxDepth = e.Depth
			}
		case obs.KindSkip:
			s.StaleSkips++
		case obs.KindIncumbent:
			s.Incumbents++
		case obs.KindGap:
			s.GapCurve = append(s.GapCurve, GapPoint{
				Nodes: e.Node, Incumbent: e.Incumbent,
				BestBound: e.BestBound, Gap: e.Gap, TimeMS: e.TimeMS,
			})
		case obs.KindDone:
			s.hasDone = true
			done.nodes += e.Node
			done.iters += e.Iters
			done.refactors += e.Refactors
			s.FinalStatus = e.Outcome
			s.StopReason = e.Reason
			s.FinalObj = e.Incumbent
			s.FinalBound = e.BestBound
			s.FinalGap = e.Gap
		case obs.KindFlightMeta:
			s.Partial = true
			s.SeenEvents = e.Seen
			s.DroppedEvents = e.Dropped
		}
	}
	counted := done
	if s.Partial {
		counted = perEvent
	}
	s.Nodes, s.SimplexIters, s.LURefactors = counted.nodes, counted.iters, counted.refactors
	return s
}

// Check verifies the trace's internal accounting: it is empty (no
// solve ran) or closed by a done event, and its node events carry
// exactly one outcome per node the done events count. Partial
// flight-recorder dumps are excused: a ring dumped mid-solve, or after
// it overwrote the beginning, holds a tail of the stream that no done
// total describes.
func (s *Summary) Check() error {
	if s.Partial || s.Events == 0 {
		return nil
	}
	if !s.hasDone {
		return fmt.Errorf("trace has no done event")
	}
	sum := 0
	for _, n := range s.Outcomes {
		sum += n
	}
	if sum != s.Nodes {
		return fmt.Errorf("node events carry %d outcomes, done events count %d nodes", sum, s.Nodes)
	}
	return nil
}

// HasDone reports whether the trace was closed by a done event.
func (s *Summary) HasDone() bool { return s.hasDone }

// Render formats the summary as a human-readable report.
func (s *Summary) Render() string {
	if s.Events == 0 {
		return "trace: 0 events, no ILP solve ran\n"
	}
	var sb strings.Builder
	if s.Partial {
		fmt.Fprintf(&sb, "partial flight dump: %d of %d events retained (%d dropped under contention)\n",
			s.Events-1, s.SeenEvents, s.DroppedEvents)
	}
	fmt.Fprintf(&sb, "trace: %d events, %d nodes (max depth %d), %d stale skips, %d incumbents\n",
		s.Events, s.Nodes, s.MaxDepth, s.StaleSkips, s.Incumbents)
	fmt.Fprintf(&sb, "effort: %d simplex iters, %d LU refactorizations, root bound %g\n",
		s.SimplexIters, s.LURefactors, s.RootBound)
	if len(s.Outcomes) > 0 {
		sb.WriteString("node outcomes:\n")
		keys := make([]string, 0, len(s.Outcomes))
		for k := range s.Outcomes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			n := s.Outcomes[k]
			fmt.Fprintf(&sb, "  %-18s %6d  (%5.1f%%)\n", k, n, 100*float64(n)/float64(s.Nodes))
		}
	}
	if len(s.GapCurve) > 0 {
		sb.WriteString("gap convergence:\n")
		sb.WriteString("  nodes  incumbent  best-bound    gap\n")
		for _, p := range s.GapCurve {
			fmt.Fprintf(&sb, "  %5d  %9g  %10g  %s\n", p.Nodes, p.Incumbent, p.BestBound, fmtGap(p.Gap))
		}
	}
	if s.hasDone {
		fmt.Fprintf(&sb, "final: status=%s stop=%s obj=%g bound=%g gap=%s\n",
			s.FinalStatus, s.StopReason, s.FinalObj, s.FinalBound, fmtGap(s.FinalGap))
	}
	return sb.String()
}

func fmtGap(g float64) string {
	if g < 0 || math.IsInf(g, 0) || math.IsNaN(g) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", 100*g)
}
