package bench

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// This file implements the run-aligned comparator behind cmd/benchdiff,
// plus the header, key union, tally and trailer that internal/load's
// request-aligned comparator shares. It aligns two rulefit-bench/v1
// reports run-by-run and classifies wall-clock movement against a
// noise threshold. Because the solver is deterministic for a fixed
// (capacity, rules, seed) key, node and simplex-iteration
// counts must match exactly between reports built from the same code;
// a change there is search drift (an algorithmic change), not timing
// noise, and is flagged separately so a reader can tell "machine was
// busy" from "the search changed".

// DiffOptions tunes the comparator's noise model.
type DiffOptions struct {
	// WallThreshold is the relative wall-clock slowdown tolerated before
	// a run counts as regressed (and symmetrically, the speedup required
	// to count as improved). Default 0.25 (25%).
	WallThreshold float64
	// MinWallMS is the absolute wall-clock change (ms) a run must move
	// before it can count as regressed or improved; sub-millisecond
	// solves jitter far beyond any relative threshold. Default 5 ms.
	MinWallMS float64
}

// withDefaults fills in unset options.
func (o DiffOptions) withDefaults() DiffOptions {
	if o.WallThreshold <= 0 {
		o.WallThreshold = 0.25
	}
	if o.MinWallMS <= 0 {
		o.MinWallMS = 5
	}
	return o
}

// Verdict classifies one aligned run pair.
type Verdict string

// Verdicts, from best to worst.
const (
	VerdictImproved  Verdict = "improved"
	VerdictUnchanged Verdict = "unchanged"
	VerdictRegressed Verdict = "regressed"
	VerdictAdded     Verdict = "added"
	VerdictRemoved   Verdict = "removed"
)

// RunDiff is one aligned run pair (or an unmatched run).
type RunDiff struct {
	// Key identifies the run: capacity/rules/seed.
	Key     string  `json:"key"`
	Verdict Verdict `json:"verdict"`
	// OldWallMS/NewWallMS are the measured wall clocks; the absent side
	// is 0 for added/removed runs.
	OldWallMS float64 `json:"old_wall_ms"`
	NewWallMS float64 `json:"new_wall_ms"`
	// Ratio is NewWallMS/OldWallMS (0 when not comparable).
	Ratio float64 `json:"ratio,omitempty"`
	// SearchDrift reports that nodes or simplex iterations differ: the
	// search itself changed, so the wall delta is not pure noise.
	SearchDrift bool `json:"search_drift,omitempty"`
	OldNodes    int  `json:"old_nodes,omitempty"`
	NewNodes    int  `json:"new_nodes,omitempty"`
	OldIters    int  `json:"old_iters,omitempty"`
	NewIters    int  `json:"new_iters,omitempty"`
	// StatusChanged reports a solve outcome change (e.g. optimal →
	// limit), which always accompanies a verdict of regressed or
	// improved regardless of wall clock.
	OldStatus string `json:"old_status,omitempty"`
	NewStatus string `json:"new_status,omitempty"`
}

// SeriesDiff aggregates the aligned runs of one capacity series: summed
// wall clock, node, and simplex-iteration totals on both sides. Because
// the solver is deterministic, any node/iteration movement here is
// algorithmic search drift for the whole series, which reads more
// easily than per-run noise when many runs drift together.
type SeriesDiff struct {
	// Key identifies the series: capacity.
	Key       string  `json:"key"`
	Runs      int     `json:"runs"`
	OldWallMS float64 `json:"old_wall_ms"`
	NewWallMS float64 `json:"new_wall_ms"`
	OldNodes  int     `json:"old_nodes"`
	NewNodes  int     `json:"new_nodes"`
	OldIters  int     `json:"old_iters"`
	NewIters  int     `json:"new_iters"`
	// Geomean is the geometric-mean per-run speedup (old/new wall) over
	// the series' aligned runs, 0 when undefined.
	Geomean float64 `json:"geomean,omitempty"`
}

// Drifted reports whether the series' summed search effort moved.
func (s SeriesDiff) Drifted() bool {
	return s.OldNodes != s.NewNodes || s.OldIters != s.NewIters
}

// AlignedKeys returns the sorted union of the keys of two reports' row
// indexes: every row either report recorded, once.
func AlignedKeys[K cmp.Ordered, V any](old, new map[K]V) []K {
	keys := make([]K, 0, len(old)+len(new))
	for k := range old {
		keys = append(keys, k)
	}
	for k := range new {
		if _, ok := old[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// DiffHeader opens the comparison of two reports of either family:
// their timestamps, the noise model, and the host check.
type DiffHeader struct {
	OldTimestamp string      `json:"old_timestamp"`
	NewTimestamp string      `json:"new_timestamp"`
	Options      DiffOptions `json:"options"`
	// HostMismatch warns that the two reports were taken on different
	// hosts or Go versions, making wall clocks incomparable.
	HostMismatch bool `json:"host_mismatch,omitempty"`
}

// NewDiffHeader compares the envelopes of two reports.
func NewDiffHeader(old, new Envelope, opts DiffOptions) DiffHeader {
	return DiffHeader{
		OldTimestamp: old.Timestamp,
		NewTimestamp: new.Timestamp,
		Options:      opts,
		HostMismatch: old.HostDiffers(new),
	}
}

// RenderHeader writes the opening lines of a rendered comparison: the
// two timestamps, the thresholds, and the host warning.
func (h DiffHeader) RenderHeader(w io.Writer) {
	fmt.Fprintf(w, "benchdiff: %s -> %s\n", h.OldTimestamp, h.NewTimestamp)
	fmt.Fprintf(w, "threshold: %.0f%% relative, %.1f ms absolute\n",
		h.Options.WallThreshold*100, h.Options.MinWallMS)
	if h.HostMismatch {
		fmt.Fprintf(w, "WARNING: host or Go version differs between reports; wall clocks are not comparable\n")
	}
}

// Tally counts a comparison's rows by verdict.
type Tally struct {
	Improved  int `json:"improved"`
	Unchanged int `json:"unchanged"`
	Regressed int `json:"regressed"`
	Added     int `json:"added"`
	Removed   int `json:"removed"`
	// Drifted counts aligned rows whose answer changed: the search
	// (bench runs) or the placement bytes (load requests).
	Drifted int `json:"drifted"`
}

// Count tallies one row's verdict.
func (t *Tally) Count(v Verdict) {
	switch v {
	case VerdictImproved:
		t.Improved++
	case VerdictRegressed:
		t.Regressed++
	case VerdictAdded:
		t.Added++
	case VerdictRemoved:
		t.Removed++
	default:
		t.Unchanged++
	}
}

// RenderResult writes the "RESULT:" trailer scripts grep for; fail
// selects FAIL over PASS.
func (t Tally) RenderResult(w io.Writer, fail bool) error {
	verdict := "PASS"
	if fail {
		verdict = "FAIL"
	}
	_, err := fmt.Fprintf(w, "RESULT: %s (%d improved, %d unchanged, %d regressed, %d added, %d removed, %d drifted)\n",
		verdict, t.Improved, t.Unchanged, t.Regressed, t.Added, t.Removed, t.Drifted)
	return err
}

// Diff is the comparison of two rulefit-bench/v1 reports.
type Diff struct {
	DiffHeader
	// ScaleMismatch warns that the reports were swept at different
	// cmd/experiments scales; aligned-run keys may match by accident, but
	// the workloads differ. Only set when both reports record a scale —
	// reports from before the field existed carry "" and get a softer
	// note instead.
	ScaleMismatch bool      `json:"scale_mismatch,omitempty"`
	OldScale      string    `json:"old_scale,omitempty"`
	NewScale      string    `json:"new_scale,omitempty"`
	Runs          []RunDiff `json:"runs"`
	// Series aggregates aligned runs per capacity series.
	Series []SeriesDiff `json:"series,omitempty"`
	// Tally counts runs by verdict; Drifted counts runs with
	// SearchDrift set.
	Tally
	// OldTotalMS/NewTotalMS sum wall clocks over aligned runs only.
	OldTotalMS float64 `json:"old_total_ms"`
	NewTotalMS float64 `json:"new_total_ms"`
	// GeomeanSpeedup is the geometric mean of old/new wall ratios over
	// all aligned runs (> 1 means the new report is faster); 0 when no
	// aligned run has comparable wall clocks. Unlike the total, it is not
	// dominated by the slowest instances.
	GeomeanSpeedup float64 `json:"geomean_speedup,omitempty"`
}

// HasRegressions reports whether any aligned run regressed.
func (d *Diff) HasRegressions() bool { return d.Regressed > 0 }

// runKey identifies a run across reports.
func runKey(capacity, rules int, seed int64) string {
	return fmt.Sprintf("c%d/r%d/s%d", capacity, rules, seed)
}

// flatten indexes a report's runs by key. A report written when the
// sweep repeated per worker count holds a key once per count; the
// first run read under it wins, so such a report diffs as its first
// worker count.
func flatten(r *Report) map[string]RunRecord {
	out := make(map[string]RunRecord)
	for _, sr := range r.Series {
		for _, p := range sr.Points {
			for _, run := range p.Runs {
				k := runKey(sr.Capacity, p.Rules, run.Seed)
				if _, seen := out[k]; !seen {
					out[k] = run
				}
			}
		}
	}
	return out
}

// CompareReports aligns two reports run-by-run and classifies each pair.
func CompareReports(old, new *Report, opts DiffOptions) *Diff {
	opts = opts.withDefaults()
	d := &Diff{
		DiffHeader: NewDiffHeader(old.Envelope, new.Envelope, opts),
		ScaleMismatch: old.Config.Scale != new.Config.Scale &&
			old.Config.Scale != "" && new.Config.Scale != "",
		OldScale: old.Config.Scale,
		NewScale: new.Config.Scale,
	}
	oldRuns, newRuns := flatten(old), flatten(new)
	type seriesAcc struct {
		SeriesDiff
		logSum float64
		ratios int
	}
	series := make(map[string]*seriesAcc)
	var seriesKeys []string
	logSum, ratios := 0.0, 0
	for _, k := range AlignedKeys(oldRuns, newRuns) {
		o, haveOld := oldRuns[k]
		n, haveNew := newRuns[k]
		rd := RunDiff{Key: k, OldWallMS: o.WallMS, NewWallMS: n.WallMS}
		switch {
		case !haveOld:
			rd.Verdict = VerdictAdded
			rd.NewStatus = n.Status
		case !haveNew:
			rd.Verdict = VerdictRemoved
			rd.OldStatus = o.Status
		default:
			rd.Verdict = opts.Classify(o.Status, n.Status, o.WallMS, n.WallMS)
			if o.BnBNodes != n.BnBNodes || o.SimplexIters != n.SimplexIters {
				rd.SearchDrift = true
				rd.OldNodes, rd.NewNodes = o.BnBNodes, n.BnBNodes
				rd.OldIters, rd.NewIters = o.SimplexIters, n.SimplexIters
				d.Drifted++
			}
			if o.Status != n.Status {
				rd.OldStatus, rd.NewStatus = o.Status, n.Status
			}
			if o.WallMS > 0 {
				rd.Ratio = n.WallMS / o.WallMS
			}
			d.OldTotalMS += o.WallMS
			d.NewTotalMS += n.WallMS
			sk := seriesKeyOf(k)
			sa := series[sk]
			if sa == nil {
				sa = &seriesAcc{SeriesDiff: SeriesDiff{Key: sk}}
				series[sk] = sa
				seriesKeys = append(seriesKeys, sk)
			}
			sa.Runs++
			sa.OldWallMS += o.WallMS
			sa.NewWallMS += n.WallMS
			sa.OldNodes += o.BnBNodes
			sa.NewNodes += n.BnBNodes
			sa.OldIters += o.SimplexIters
			sa.NewIters += n.SimplexIters
			if o.WallMS > 0 && n.WallMS > 0 {
				l := math.Log(o.WallMS / n.WallMS)
				sa.logSum += l
				sa.ratios++
				logSum += l
				ratios++
			}
		}
		d.Count(rd.Verdict)
		d.Runs = append(d.Runs, rd)
	}
	sort.Strings(seriesKeys)
	for _, sk := range seriesKeys {
		sa := series[sk]
		if sa.ratios > 0 {
			sa.Geomean = math.Exp(sa.logSum / float64(sa.ratios))
		}
		d.Series = append(d.Series, sa.SeriesDiff)
	}
	if ratios > 0 {
		d.GeomeanSpeedup = math.Exp(logSum / float64(ratios))
	}
	return d
}

// seriesKeyOf truncates a run key (c/r/s) to its series (c).
func seriesKeyOf(runKey string) string {
	series, _, _ := strings.Cut(runKey, "/")
	return series
}

// StatusRank orders solve outcomes from best to worst. Comparators
// over either report family (solver runs or served requests) treat a
// rank change as trumping the wall clock: losing optimality is a
// regression even when it got faster.
func StatusRank(s string) int {
	switch s {
	case "optimal":
		return 0
	case "feasible":
		return 1
	case "limit":
		return 2
	case "infeasible":
		return 3
	default:
		return 4
	}
}

// ClassifyWall applies the wall-clock noise model to one aligned
// measurement pair: a movement counts as regressed/improved only when
// it clears both the relative threshold and the absolute floor, so
// sub-millisecond jitter never flips a verdict.
func (o DiffOptions) ClassifyWall(oldMS, newMS float64) Verdict {
	o = o.withDefaults()
	delta := newMS - oldMS
	if delta > o.MinWallMS && newMS > oldMS*(1+o.WallThreshold) {
		return VerdictRegressed
	}
	if -delta > o.MinWallMS && oldMS > newMS*(1+o.WallThreshold) {
		return VerdictImproved
	}
	return VerdictUnchanged
}

// Classify is the full shared comparison: a solve-outcome rank change
// trumps the wall clock (infeasible-vs-infeasible stays a wall
// comparison); otherwise the noise model decides.
func (o DiffOptions) Classify(oldStatus, newStatus string, oldMS, newMS float64) Verdict {
	if or, nr := StatusRank(oldStatus), StatusRank(newStatus); or != nr {
		if nr > or {
			return VerdictRegressed
		}
		return VerdictImproved
	}
	return o.ClassifyWall(oldMS, newMS)
}

// Render writes the human-readable comparison. The layout is stable and
// golden-tested; scripts may grep the "RESULT:" trailer.
func (d *Diff) Render(w io.Writer) error {
	d.RenderHeader(w)
	if d.ScaleMismatch {
		fmt.Fprintf(w, "WARNING: workload scale differs between reports (%q -> %q); aligned runs solve different instances\n",
			d.OldScale, d.NewScale)
	} else if (d.OldScale == "") != (d.NewScale == "") {
		fmt.Fprintf(w, "note: workload scale recorded on only one report (%q -> %q); scale comparison skipped\n",
			d.OldScale, d.NewScale)
	}
	for _, r := range d.Runs {
		switch r.Verdict {
		case VerdictAdded:
			fmt.Fprintf(w, "  added     %-24s %8.1f ms\n", r.Key, r.NewWallMS)
		case VerdictRemoved:
			fmt.Fprintf(w, "  removed   %-24s %8.1f ms\n", r.Key, r.OldWallMS)
		case VerdictUnchanged:
			// Quiet unless the search drifted.
			if r.SearchDrift {
				fmt.Fprintf(w, "  drift     %-24s %8.1f -> %8.1f ms  nodes %d -> %d, iters %d -> %d\n",
					r.Key, r.OldWallMS, r.NewWallMS, r.OldNodes, r.NewNodes, r.OldIters, r.NewIters)
			}
		default:
			line := fmt.Sprintf("  %-9s %-24s %8.1f -> %8.1f ms (%.2fx)",
				r.Verdict, r.Key, r.OldWallMS, r.NewWallMS, r.Ratio)
			if r.OldStatus != r.NewStatus {
				line += fmt.Sprintf("  status %s -> %s", r.OldStatus, r.NewStatus)
			}
			if r.SearchDrift {
				line += fmt.Sprintf("  nodes %d -> %d", r.OldNodes, r.NewNodes)
			}
			fmt.Fprintln(w, line)
		}
	}
	for _, s := range d.Series {
		line := fmt.Sprintf("series %-8s %9.1f -> %9.1f ms", s.Key, s.OldWallMS, s.NewWallMS)
		if s.Geomean > 0 {
			line += fmt.Sprintf(" (geomean %.2fx)", s.Geomean)
		}
		if s.Drifted() {
			line += fmt.Sprintf("  nodes %d -> %d, iters %d -> %d", s.OldNodes, s.NewNodes, s.OldIters, s.NewIters)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "aligned total: %.1f -> %.1f ms\n", d.OldTotalMS, d.NewTotalMS)
	if d.GeomeanSpeedup > 0 {
		fmt.Fprintf(w, "geomean speedup: %.2fx\n", d.GeomeanSpeedup)
	}
	return d.RenderResult(w, d.HasRegressions())
}

// ReadReport loads and schema-checks one BENCH_*.json file.
func ReadReport(path string) (*Report, error) { return ReadJSON[Report](path, ReportSchema) }

// LatestPair returns the two lexically-latest rulefit-bench/v1 reports
// among the BENCH_*.json files in dir (old, new): the stamp format
// sorts chronologically, so these are the last two points of the
// committed perf trajectory. Reports of other schemas (BENCH_delta_*
// load reports) share the glob and are skipped.
func LatestPair(dir string) (oldPath, newPath string, err error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", "", err
	}
	sort.Strings(matches)
	var pair []string
	for i := len(matches) - 1; i >= 0 && len(pair) < 2; i-- {
		e, err := ReadEnvelope(matches[i])
		if err != nil {
			return "", "", err
		}
		if e.Schema == ReportSchema {
			pair = append(pair, matches[i])
		}
	}
	if len(pair) < 2 {
		return "", "", fmt.Errorf("%s: need at least 2 %s reports, found %d", dir, ReportSchema, len(pair))
	}
	return pair[1], pair[0], nil
}
