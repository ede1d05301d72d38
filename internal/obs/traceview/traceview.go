// Package traceview summarizes JSONL solver traces produced by the
// obs.JSONLWriter sink: prune-reason histogram, gap-convergence table,
// and internal-consistency checks (outcome counts must sum to the node
// total; the final gap must match the done event).
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

// Summary aggregates one solver trace.
type Summary struct {
	Events        int            `json:"events"`
	Nodes         int            `json:"nodes"`
	Outcomes      map[string]int `json:"outcomes"`
	StaleSkips    int            `json:"stale_skips"`
	Incumbents    int            `json:"incumbents"`
	PresolveFixes int            `json:"presolve_fixes"`
	RootBound     float64        `json:"root_bound"`
	SimplexIters  int            `json:"simplex_iters"`
	LURefactors   int            `json:"lu_refactors"`
	GapCurve      []GapPoint     `json:"gap_curve"`
	FinalStatus   string         `json:"final_status"`
	StopReason    string         `json:"stop_reason"`
	FinalObj      float64        `json:"final_obj"`
	FinalBound    float64        `json:"final_bound"`
	FinalGap      float64        `json:"final_gap"`
	MaxDepth      int            `json:"max_depth"`
	// Partial marks a flight-recorder ring dump: the trace is the tail
	// of the event stream, so a missing done event is expected and the
	// loss accounting below says how much is gone.
	Partial       bool `json:"partial,omitempty"`
	SeenEvents    int  `json:"seen_events,omitempty"`
	DroppedEvents int  `json:"dropped_events,omitempty"`
	hasDone       bool
}

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
	for _, e := range events {
		s.Events++
		switch e.Kind {
		case obs.KindPresolve:
			s.PresolveFixes += e.Fixes
		case obs.KindRootLP:
			s.RootBound = e.Bound
			s.SimplexIters += e.Iters
			s.LURefactors += e.Refactors
		case obs.KindNode:
			s.Nodes++
			s.Outcomes[e.Outcome]++
			s.SimplexIters += e.Iters
			s.LURefactors += e.Refactors
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
	return s
}

// Check verifies the trace's internal accounting: every expanded node
// carries exactly one outcome (so outcome counts sum to the node
// total), and the trace is closed by a done event. Partial
// flight-recorder dumps keep the outcome consistency check (it holds
// over whatever tail the ring retained) but are excused from the
// done-event requirement — a ring dumped mid-solve, or after the ring
// overwrote the beginning, has no reason to contain one.
func (s *Summary) Check() error {
	sum := 0
	for _, n := range s.Outcomes {
		sum += n
	}
	if sum != s.Nodes {
		return fmt.Errorf("outcome counts sum to %d, want %d nodes", sum, s.Nodes)
	}
	if !s.hasDone && !s.Partial {
		return fmt.Errorf("trace has no done event")
	}
	return nil
}

// HasDone reports whether the trace was closed by a done event.
func (s *Summary) HasDone() bool { return s.hasDone }

// Render formats the summary as a human-readable report.
func (s *Summary) Render() string {
	var sb strings.Builder
	if s.Partial {
		fmt.Fprintf(&sb, "partial flight dump: %d of %d events retained (%d dropped under contention)\n",
			s.Events-1, s.SeenEvents, s.DroppedEvents)
	}
	fmt.Fprintf(&sb, "trace: %d events, %d nodes (max depth %d), %d stale skips, %d incumbents\n",
		s.Events, s.Nodes, s.MaxDepth, s.StaleSkips, s.Incumbents)
	fmt.Fprintf(&sb, "effort: %d simplex iters, %d LU refactorizations, %d presolve fixes, root bound %g\n",
		s.SimplexIters, s.LURefactors, s.PresolveFixes, s.RootBound)
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
