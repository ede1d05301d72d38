// Command perfbench is the repository's benchmark: it replays one
// workload against a fresh live ruleplaced and prints end-to-end
// metrics, or, with --trace 1, adds an in-process traced run and
// prints per-layer metrics. Every answer is checked; the last line of
// standard output is the JSON result.
//
// Usage (perfbench/run.sh builds both binaries and passes --daemon):
//
//	perfbench --daemon ruleplaced --workload fig7-tight|merge-grid|session-delta
//	          [--seed 1] [--seconds 10] [--trace 0|1] [--out DIR]
//	perfbench --pin-references   print reference.json from in-process solves
//
// Seed 1 is the development seed; seed 2 is the hold-out seed for
// checking a claim on inputs it was not tuned on.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"rulefit/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runBudget bounds one run; the benchmark contract allows 180 s.
const runBudget = 170 * time.Second

// tracedSeconds caps the nominal seconds of a --trace 1 run, whose
// in-process replay checks every session answer against a cold solve.
const tracedSeconds = 8

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "fig7-tight, merge-grid or session-delta")
	seed := fs.Int64("seed", 1, "workload seed (1 = development, 2 = hold-out)")
	seconds := fs.Int("seconds", 10, "nominal measured seconds; fixes the passes or edits replayed")
	trace := fs.Int("trace", 0, "1 adds the in-process traced run and prints per-layer metrics")
	daemonBin := fs.String("daemon", "", "ruleplaced binary")
	outDir := fs.String("out", ".bench_build/spans", "directory for span files")
	pin := fs.Bool("pin-references", false, "solve every fixed item in-process and print reference.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pin {
		if err := pinReferences(stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *daemonBin == "" || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: need --daemon, --trace 0|1 and --seconds >= 1")
		return 2
	}
	// A signal cancels the run, which stops the daemon before exit.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	ctx, cancel := context.WithTimeout(sigCtx, runBudget)
	defer cancel()
	res, err := runBench(ctx, *workload, *seed, *seconds, *trace == 1, *daemonBin, *outDir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runBench runs one workload and builds the printed result.
func runBench(ctx context.Context, workload string, seed int64, seconds int, traced bool,
	daemonBin, outDir string, out io.Writer) (*result, error) {
	if traced {
		// The traced run adds a cold solve and verification per answer;
		// it replays a prefix of the same plan to stay within budget.
		seconds = min(seconds, tracedSeconds)
	}
	p, err := newPlan(workload, seed, seconds)
	if err != nil {
		return nil, err
	}
	c, err := newChecker(p)
	if err != nil {
		return nil, err
	}
	live, err := runLive(ctx, p, daemonBin, traced)
	if err != nil {
		return nil, err
	}

	var tr *tracedRun
	if traced {
		rec := &recorder{t0: time.Now()}
		if tr, err = runInProcess(p, rec); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
		if err := rec.write(spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(rec.spans), spans)
		c.expect = tr.bytes
	} else if p.workload == sessionDelta {
		replay, err := runInProcess(p, nil)
		if err != nil {
			return nil, fmt.Errorf("in-process replay: %w", err)
		}
		c.expect = replay.bytes
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Attempted: len(live.answers), Metrics: map[string]metric{}}
	outcomes := make([]outcome, len(live.answers))
	samples := make([]sample, len(live.answers))
	wrong := 0
	for i, a := range live.answers {
		outcomes[i] = c.check(i, a)
		samples[i] = sample{ms: a.adjustedMS(), item: p.label(i)}
		if p.workload == sessionDelta {
			samples[i].item = "edit/" + p.edits[i].kind
		}
		if o := outcomes[i]; o.failed {
			res.Failed++
			if o.wrong {
				wrong++
			}
			fmt.Fprintf(out, "failed: %s after %.1fms: %s\n", p.label(i), a.latencyMS, o.reason)
		}
	}
	if err := c.selfTest(outcomes); err != nil {
		res.Correct = false
		fmt.Fprintln(out, "WRONG:", err)
	} else {
		fmt.Fprintln(out, "self-test: both tampered answers refused")
	}
	if tr != nil {
		for _, e := range tr.errors {
			res.Correct = false
			fmt.Fprintln(out, "WRONG:", e)
		}
	}
	if wrong > 0 {
		res.Correct = false
	}

	sorted := sortedSamples(samples)
	fmt.Fprintf(out, "%s seed=%d passes=%d timed=%d failed=%d wrong=%d host-steal=%.1f%%\n",
		workload, seed, p.passes, len(samples), res.Failed, wrong, live.stealPct)
	fmt.Fprintf(out, "item medians (ms): %s\n", itemMedians(sorted))
	if !traced {
		endToEnd(res, live, sorted, out)
	} else {
		perLayer(res, p, live, outcomes, tr, out)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// endToEnd fills the metrics a user of the daemon sees. Wall-clock
// metrics have the host's stolen share taken out (see answer.adjustedMS);
// the raw client-observed figures are printed beside them.
func endToEnd(res *result, live *liveRun, sorted []sample, out io.Writer) {
	setups := make([]sample, len(live.setupS))
	for i, s := range live.setupS {
		setups[i] = sample{ms: s}
	}
	raw := live.rawLatencies()
	setup := median(sortedSamples(setups))
	tailMS, pct, beyond := tail(sorted)
	rawTail, _, _ := tail(raw)
	res.Metrics["latency_p50_ms"] = metric{median(sorted), "ms"}
	res.Metrics["latency_tail_ms"] = metric{tailMS, "ms"}
	res.Metrics["cpu_ms_per_answer"] = metric{ratio(live.cpuMS, float64(len(sorted))), "ms"}
	res.Metrics["max_rss_mb"] = metric{live.hwmMB, "MB"}
	res.Metrics["setup_s"] = metric{setup * (1 - live.stealPct/100), "s"}
	fmt.Fprintf(out, "raw client-observed: p50 %.3fms, tail %.3fms, setup %.4fs (host steal %.1f%% of busy time)\n",
		median(raw), rawTail, setup, live.stealPct)
	fmt.Fprintf(out, "latency_tail_ms is p%.1f of %d samples (%d beyond it)\n", pct, len(sorted), beyond)
	fmt.Fprintf(out, "p50 order statistic: %s\n", gapNote(sorted, (len(sorted)-1)/2))
	if len(sorted)%2 == 0 {
		fmt.Fprintf(out, "p50 upper order statistic: %s\n", gapNote(sorted, len(sorted)/2))
	}
	fmt.Fprintf(out, "tail order statistic: %s\n", gapNote(sorted, tailRank(len(sorted))))
	fmt.Fprintf(out, "setups (s): %v\n", live.setupS)
}

// perLayer fills the per-layer metrics from the traced run and from
// what the untraced run observed anyway: Server-Timing headers, the
// client clock and /proc/<pid>.
func perLayer(res *result, p *plan, live *liveRun, outcomes []outcome, tr *tracedRun, out io.Writer) {
	s := tr.stats
	n := float64(max(s.answers, 1))
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	put("ilp.root_lp_ms", s.rootLPMS/n, "ms")
	put("ilp.presolve_ms", s.presolveMS/n, "ms")
	put("ilp.model_build_ms", s.modelBuildMS/n, "ms")
	put("ilp.simplex_iters", float64(s.iters)/n, "count")
	put("ilp.lu_refactors", float64(s.luRefactors)/n, "count")
	put("ilp.iters_per_ms", ratio(float64(s.iters), s.rootLPMS+s.searchMS), "1/ms")
	put("ilp.search_ms", s.searchMS/n, "ms")
	put("ilp.nodes", float64(s.nodes)/n, "count")
	put("ilp.strong_branch_evals", float64(s.strongBranch)/n, "count")
	put("ilp.warm_start_ratio", ratio(float64(s.warmStarts), float64(s.childNodes)), "ratio")
	put("ilp.cuts_added", float64(s.cutsAdded)/n, "count")
	put("ilp.limit_answers", float64(s.limitAnswers), "count")

	// Live answers without a proven result, and how far past the
	// requested limit they arrived.
	var overshoot float64
	var limited int
	for i, o := range outcomes {
		if o.status == core.StatusLimit.String() || o.status == core.StatusFeasible.String() {
			limited++
			overshoot += live.answers[i].latencyMS/1e3 - p.timeLimitSec()
		}
	}
	put("ilp.deadline_overshoot_s", ratio(overshoot, float64(limited)), "s")

	put("core.decompose_ms", s.decomposeMS/n, "ms")
	put("core.sub_solves", float64(s.subSolves)/n, "count")
	put("core.stitch_accept_ratio", ratio(float64(s.decompAccepted), float64(s.decompTried)), "ratio")
	put("core.decompose_waste_ms", s.wasteMS/n, "ms")
	put("core.joint_fallbacks", float64(s.jointAfterDc), "count")
	put("core.encode_ms", s.encodeMS/n, "ms")
	put("core.variables", float64(s.variables)/n, "count")
	put("core.constraints", float64(s.constraints)/n, "count")
	put("core.extract_ms", s.extractMS/n, "ms")

	put("state.delta_ms", ratio(s.deltaMS, float64(s.deltas)), "ms")
	put("state.overhead_ms", ratio(s.overheadMS, float64(s.deltas)), "ms")
	put("state.identity_answers", float64(s.identity), "count")
	put("state.fragment_hit_ratio", ratio(float64(s.fragHits), float64(s.fragLookups)), "ratio")
	put("state.encode_hit_ratio", ratio(float64(s.encHits), float64(s.encLk)), "ratio")

	put("spec.build_ms", ratio(s.specMS, float64(s.specN)), "ms")

	var queue, parse, unattributed, kb float64
	var shed, errs, stFallbacks int
	for _, a := range live.answers {
		switch {
		case a.code == 429:
			shed++
		case a.err != nil || a.code != 200:
			errs++
		}
		sum := 0.0
		names := map[string]bool{}
		for _, ph := range parseServerTiming(a.timing) {
			sum += ph.ms
			names[ph.name] = true
			switch ph.name {
			case "queue_wait":
				queue += ph.ms
			case "parse":
				parse += ph.ms
			}
		}
		if names["decompose"] && names["solve"] {
			stFallbacks++
		}
		unattributed += a.latencyMS - sum
		kb += float64(len(a.body)) / 1024
	}
	na := float64(max(len(live.answers), 1))
	put("daemon.queue_wait_ms", queue/na, "ms")
	put("daemon.parse_ms", parse/na, "ms")
	put("daemon.encode_ms", s.respEncMS/n, "ms")
	put("daemon.unattributed_ms", unattributed/na, "ms")
	put("daemon.response_kb", kb/na, "kB")
	put("daemon.shed", float64(shed), "count")
	put("daemon.errors", float64(errs), "count")
	if stFallbacks != s.jointAfterDc {
		fmt.Fprintf(out, "note: Server-Timing shows %d joint fallbacks, the trace %d\n", stFallbacks, s.jointAfterDc)
	}

	put("obs.flight_events_per_answer", float64(live.flightEv)/na, "count")
	put("runtime.alloc_mb_per_answer", float64(s.allocBytes)/(1<<20)/n, "MB")
	put("os.runq_wait_ms_per_answer", live.runqMS/na, "ms")
	put("os.host_steal_pct", live.stealPct, "%")

	put("verify.tables_ms", ratio(s.tablesMS, float64(s.verified)), "ms")
	put("verify.semantics_ms", ratio(s.semanticsMS, float64(s.verified)), "ms")
	put("verify.violations", float64(s.violations), "count")

	for _, layer := range []string{"spec", "state", "core", "ilp", "daemon", "verify"} {
		put("self."+layer+"_ms", s.selfMS[layer]/n, "ms")
	}
	traced := s.pipelineMedian()
	untraced := median(live.rawLatencies())
	put("trace.latency_p50_ms", traced, "ms")
	put("trace.overhead_ratio", ratio(traced, untraced), "ratio")
	fmt.Fprintf(out, "tracing overhead: traced in-process p50 %.2fms vs untraced live p50 %.2fms\n", traced, untraced)
	var layers []string
	for _, l := range s.selfLayers() {
		layers = append(layers, fmt.Sprintf("%s=%.2f", l, s.selfMS[l]/n))
	}
	fmt.Fprintf(out, "self time per answer (ms): %s\n", strings.Join(layers, " "))
}

// timeLimitSec is the budget the workload's requests carry.
func (p *plan) timeLimitSec() float64 {
	if p.workload == sessionDelta {
		return p.sessOpts.TimeLimitSec
	}
	return p.items[0].opts.TimeLimitSec
}

// pinReferences solves each fixed item once in-process and prints the
// reference file. Re-pin only with a stated reason: a changed optimal
// total means a solver bug, not a tie.
func pinReferences(out, log io.Writer) error {
	all := map[string]map[string]reference{}
	for _, w := range []string{fig7Tight, mergeGrid} {
		p, err := newPlan(w, 1, 1)
		if err != nil {
			return err
		}
		refs := map[string]reference{}
		for _, it := range p.items {
			pl, err := placeItem(it)
			if err != nil {
				return err
			}
			ref := reference{Status: pl.Status.String()}
			if pl.Status == core.StatusOptimal || pl.Status == core.StatusInfeasible {
				total := pl.TotalRules
				ref.TotalRules = &total
			}
			refs[it.name] = ref
			fmt.Fprintf(log, "%s %s: %s %d\n", w, it.name, ref.Status, pl.TotalRules)
		}
		all[w] = refs
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}
