package load

import (
	"fmt"
	"io"
	"math"

	"rulefit/internal/bench"
)

// This file implements the request-aligned comparator cmd/benchdiff
// runs on rulefit-load/v1 reports. It reuses the bench suite's noise
// model (bench.DiffOptions.Classify: a status-rank change trumps the
// wall clock, otherwise a relative threshold plus an absolute floor
// decide), header, tally and trailer, and adds the load-specific
// checks: workload-fingerprint alignment, per-request placement drift
// (content hashes must match byte-for-byte between runs of the same
// workload), and shed-point knee movement for sweep reports.

// RequestDiff is one aligned request pair (or an unmatched request),
// keyed by issue index.
type RequestDiff struct {
	Key     string        `json:"key"`
	Verdict bench.Verdict `json:"verdict"`
	// OldWallMS/NewWallMS are the client-observed latencies; the
	// absent side is 0 for added/removed requests.
	OldWallMS float64 `json:"old_wall_ms"`
	NewWallMS float64 `json:"new_wall_ms"`
	// Ratio is NewWallMS/OldWallMS (0 when not comparable).
	Ratio float64 `json:"ratio,omitempty"`
	// PlacementDrift reports that the placement content hash changed:
	// the answer itself differs, so the wall delta is not noise.
	PlacementDrift bool   `json:"placement_drift,omitempty"`
	OldHash        string `json:"old_hash,omitempty"`
	NewHash        string `json:"new_hash,omitempty"`
	// OldStatus/NewStatus are set when the outcome changed.
	OldStatus string `json:"old_status,omitempty"`
	NewStatus string `json:"new_status,omitempty"`
}

// Diff is the comparison of two load reports.
type Diff struct {
	bench.DiffHeader
	// WorkloadMismatch warns that the two reports replayed different
	// workloads (fingerprints differ); aligned indices then compare
	// unrelated requests, so placement drift is not reported.
	WorkloadMismatch bool   `json:"workload_mismatch,omitempty"`
	OldFingerprint   string `json:"old_fingerprint,omitempty"`
	NewFingerprint   string `json:"new_fingerprint,omitempty"`
	// ModeMismatch warns the run modes differ (closed vs open vs
	// sweep).
	ModeMismatch bool          `json:"mode_mismatch,omitempty"`
	Requests     []RequestDiff `json:"requests,omitempty"`
	// Tally counts requests by verdict; Drifted counts aligned
	// requests whose placement hash changed.
	bench.Tally
	// Shed movement across the whole run.
	OldShed int `json:"old_shed"`
	NewShed int `json:"new_shed"`
	// Percentile movement (ms) for quick scanning.
	OldP50MS float64 `json:"old_p50_ms"`
	NewP50MS float64 `json:"new_p50_ms"`
	OldP99MS float64 `json:"old_p99_ms"`
	NewP99MS float64 `json:"new_p99_ms"`
	// GeomeanSpeedup is the geometric mean of old/new wall ratios over
	// aligned requests (> 1 means the new run is faster).
	GeomeanSpeedup float64 `json:"geomean_speedup,omitempty"`
	// Knee movement for sweep reports (0s otherwise). A lower new knee
	// is a capacity regression.
	OldKnee int `json:"old_knee,omitempty"`
	NewKnee int `json:"new_knee,omitempty"`
	// KneeRegressed reports that the new sweep saturated at a lower
	// concurrency than the old one.
	KneeRegressed bool `json:"knee_regressed,omitempty"`
}

// HasRegressions reports whether any aligned request regressed, any
// placement drifted, or the sweep knee moved down — the conditions
// under which cmd/benchdiff exits nonzero.
func (d *Diff) HasRegressions() bool {
	return d.Regressed > 0 || d.Drifted > 0 || d.KneeRegressed
}

// CompareReports aligns two load reports request-by-request (by issue
// index) and classifies each pair with the shared bench noise model.
func CompareReports(old, new *Report, opts bench.DiffOptions) *Diff {
	d := &Diff{
		DiffHeader:       bench.NewDiffHeader(old.Envelope, new.Envelope, opts),
		WorkloadMismatch: old.Workload.Fingerprint != new.Workload.Fingerprint,
		OldFingerprint:   old.Workload.Fingerprint,
		NewFingerprint:   new.Workload.Fingerprint,
		ModeMismatch:     old.Config.Mode != new.Config.Mode,
		OldShed:          old.Shed,
		NewShed:          new.Shed,
		OldP50MS:         old.P50MS,
		NewP50MS:         new.P50MS,
		OldP99MS:         old.P99MS,
		NewP99MS:         new.P99MS,
	}
	oldReqs, newReqs := indexRequests(old), indexRequests(new)
	logSum, ratios := 0.0, 0
	for _, k := range bench.AlignedKeys(oldReqs, newReqs) {
		o, haveOld := oldReqs[k]
		n, haveNew := newReqs[k]
		rd := RequestDiff{
			Key:       fmt.Sprintf("i%d/s%d", k, seedOf(o, n)),
			OldWallMS: o.WallMS,
			NewWallMS: n.WallMS,
		}
		switch {
		case !haveOld:
			rd.Verdict = bench.VerdictAdded
			rd.NewStatus = n.Status
		case !haveNew:
			rd.Verdict = bench.VerdictRemoved
			rd.OldStatus = o.Status
		default:
			rd.Verdict = opts.Classify(o.Status, n.Status, o.WallMS, n.WallMS)
			if o.Status != n.Status {
				rd.OldStatus, rd.NewStatus = o.Status, n.Status
			}
			// Placement drift is only meaningful within one workload:
			// across workloads, aligned indices solve different
			// instances.
			if !d.WorkloadMismatch && o.PlacementHash != n.PlacementHash {
				rd.PlacementDrift = true
				rd.OldHash, rd.NewHash = o.PlacementHash, n.PlacementHash
				d.Drifted++
			}
			if o.WallMS > 0 {
				rd.Ratio = n.WallMS / o.WallMS
			}
			if o.WallMS > 0 && n.WallMS > 0 {
				logSum += math.Log(o.WallMS / n.WallMS)
				ratios++
			}
		}
		d.Count(rd.Verdict)
		d.Requests = append(d.Requests, rd)
	}
	if ratios > 0 {
		d.GeomeanSpeedup = math.Exp(logSum / float64(ratios))
	}
	if old.Sweep != nil && new.Sweep != nil {
		d.OldKnee = old.Sweep.KneeConcurrency
		d.NewKnee = new.Sweep.KneeConcurrency
		d.KneeRegressed = new.Sweep.KneeConcurrency < old.Sweep.KneeConcurrency
	}
	return d
}

// indexRequests keys a report's requests by issue index.
func indexRequests(r *Report) map[int]RequestRecord {
	out := make(map[int]RequestRecord, len(r.Requests))
	for _, req := range r.Requests {
		out[req.Index] = req
	}
	return out
}

// seedOf prefers the seed of whichever side recorded one (added and
// removed requests have a zero-value counterpart).
func seedOf(o, n RequestRecord) int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return n.Seed
}

// Render writes the human-readable comparison. Scripts may grep the
// "RESULT:" trailer; cmd/benchdiff's exit status mirrors it.
func (d *Diff) Render(w io.Writer) error {
	d.RenderHeader(w)
	if d.WorkloadMismatch {
		fmt.Fprintf(w, "WARNING: workload fingerprints differ (%s -> %s); aligned requests replay different instances, placement drift not checked\n",
			d.OldFingerprint, d.NewFingerprint)
	}
	if d.ModeMismatch {
		fmt.Fprintf(w, "WARNING: run modes differ; throughput numbers are not comparable\n")
	}
	for _, r := range d.Requests {
		switch r.Verdict {
		case bench.VerdictAdded:
			fmt.Fprintf(w, "  added     %-16s %8.1f ms\n", r.Key, r.NewWallMS)
		case bench.VerdictRemoved:
			fmt.Fprintf(w, "  removed   %-16s %8.1f ms\n", r.Key, r.OldWallMS)
		case bench.VerdictUnchanged:
			// Quiet unless the placement drifted.
			if r.PlacementDrift {
				fmt.Fprintf(w, "  drift     %-16s hash %s -> %s\n", r.Key, r.OldHash, r.NewHash)
			}
		default:
			line := fmt.Sprintf("  %-9s %-16s %8.1f -> %8.1f ms (%.2fx)",
				r.Verdict, r.Key, r.OldWallMS, r.NewWallMS, r.Ratio)
			if r.OldStatus != r.NewStatus {
				line += fmt.Sprintf("  status %s -> %s", r.OldStatus, r.NewStatus)
			}
			if r.PlacementDrift {
				line += fmt.Sprintf("  hash %s -> %s", r.OldHash, r.NewHash)
			}
			fmt.Fprintln(w, line)
		}
	}
	fmt.Fprintf(w, "shed: %d -> %d\n", d.OldShed, d.NewShed)
	fmt.Fprintf(w, "p50: %.1f -> %.1f ms, p99: %.1f -> %.1f ms\n",
		d.OldP50MS, d.NewP50MS, d.OldP99MS, d.NewP99MS)
	if d.GeomeanSpeedup > 0 {
		fmt.Fprintf(w, "geomean speedup: %.2fx\n", d.GeomeanSpeedup)
	}
	if d.OldKnee > 0 || d.NewKnee > 0 {
		fmt.Fprintf(w, "knee: %d -> %d concurrent\n", d.OldKnee, d.NewKnee)
	}
	return d.RenderResult(w, d.HasRegressions())
}
