// Command ruleplace reads a placement problem description (JSON), solves
// it, and prints the placement: status, rule totals, per-switch usage,
// and optionally the full compiled TCAM tables.
//
// Usage:
//
//	ruleplace -in problem.json [-backend ilp|sat] [-objective rules|traffic]
//	          [-merge] [-slice] [-redundancy] [-satisfy] [-tables] [-verify]
//	          [-timeout 60s] [-trace out.jsonl] [-metrics] [-flight out.jsonl]
//
// -trace writes the solver's structured event stream (node expansions,
// prunes, incumbents, bound gap) as JSONL, prints a search summary, and
// checks that the trace's totals equal the answer's nodes, simplex
// iterations and LU refactorizations. An answer runs at most one ILP
// solve; one that runs none (a certified decomposition, the SAT
// backend) leaves an empty trace.
// -flight instead retains only the tail of the stream in a ring of the
// last 4096 events and dumps it after the solve — the same
// bounded-memory recorder the daemon keeps always-on; useful for
// solves whose full trace would be gigabytes.
// -metrics attaches a metrics registry to the solver's event stream,
// the way -trace attaches its writer (so it too pays for the events),
// and prints the pipeline phase spans and the registry's
// Prometheus-text counters after the run.
//
// ruleplace serves no HTTP. To CPU-profile an input, POST it to a
// ruleplaced started with -debug-addr (its placement is byte-identical
// to this one) and pull /debug/pprof/profile while it solves.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/obs"
	"rulefit/internal/obs/traceview"
	"rulefit/internal/spec"
	"rulefit/internal/topology"
	"rulefit/internal/verify"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ruleplace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		inPath     = flag.String("in", "", "problem description JSON (required)")
		backend    = flag.String("backend", "ilp", "solver backend: ilp or sat")
		objective  = flag.String("objective", "rules", "objective: rules, traffic, or minmaxload")
		merge      = flag.Bool("merge", false, "enable cross-policy rule merging")
		slice      = flag.Bool("slice", false, "enable path-sliced policies (needs traffic slices)")
		redundancy = flag.Bool("redundancy", false, "remove redundant rules first")
		satisfy    = flag.Bool("satisfy", false, "skip optimization; find any valid placement")
		tables     = flag.Bool("tables", false, "print compiled per-switch tables")
		doVerify   = flag.Bool("verify", true, "verify placement semantics by sampling")
		timeout    = flag.Duration("timeout", 120*time.Second, "solver time limit")
		smtOut     = flag.String("smtlib", "", "also dump the SMT-LIB 2 encoding to this file")
		traceOut   = flag.String("trace", "", "write the solver event stream (JSONL) to this file")
		flightOut  = flag.String("flight", "", "write a flight-recorder ring dump (tail of the event stream, JSONL) to this file")
		metrics    = flag.Bool("metrics", false, "print phase spans and Prometheus counters after the run")
	)
	flag.Parse()
	if *inPath == "" {
		flag.Usage()
		return fmt.Errorf("-in is required")
	}
	var (
		reg       *obs.Metrics
		spanTrace *obs.Trace
	)
	if *metrics {
		reg = obs.NewMetrics()
		spanTrace = obs.NewTrace()
		// Printed on exit so the tree includes the post-solve phases
		// (table compilation, verification).
		defer func() {
			fmt.Print(spanTrace.Render())
			if err := reg.WritePrometheus(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "ruleplace: metrics:", err)
			}
		}()
	}

	parseSp := spanTrace.Span("parse")
	desc, err := spec.LoadFile(*inPath)
	if err != nil {
		return err
	}
	prob, err := desc.Build()
	if err != nil {
		return err
	}
	parseSp.SetCount("policies", int64(len(prob.Policies)))
	parseSp.End()

	monitors, err := desc.BuildMonitors()
	if err != nil {
		return err
	}
	opts := core.Options{
		Merging:         *merge,
		PathSlicing:     *slice,
		RemoveRedundant: *redundancy,
		SatisfyOnly:     *satisfy,
		TimeLimit:       *timeout,
		Monitors:        monitors,
	}
	if opts.Backend, err = core.ParseBackend(*backend); err != nil {
		return err
	}
	if opts.Objective, err = core.ParseObjective(*objective); err != nil {
		return err
	}
	var (
		traceFile *os.File
		traceJW   *obs.JSONLWriter
	)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		traceFile = f
		traceJW = obs.NewJSONLWriter(f)
		opts.SolverSink = traceJW
	}
	var flightRec *obs.FlightRecorder
	if *flightOut != "" {
		flightRec = obs.NewFlightRecorder(obs.FlightOpts{Size: obs.FlightEvents})
		opts.SolverSink = obs.Multi(opts.SolverSink, flightRec)
	}
	if reg != nil {
		opts.SolverSink = obs.Multi(opts.SolverSink, reg)
	}
	opts.Trace = spanTrace

	if *smtOut != "" {
		f, err := os.Create(*smtOut)
		if err != nil {
			return err
		}
		if err := core.WriteSMTLIB(f, prob, opts, !*satisfy); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("smt-lib script written to %s\n", *smtOut)
	}

	start := time.Now()
	pl, err := core.Place(prob, opts)
	if err != nil {
		return err
	}
	if traceFile != nil {
		if err := traceJW.Flush(); err != nil {
			return err
		}
		if err := traceFile.Close(); err != nil {
			return err
		}
		f, err := os.Open(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		sum, err := traceview.Summarize(f)
		if err != nil {
			return err
		}
		fmt.Printf("trace       : %d events -> %s\n", sum.Events, *traceOut)
		fmt.Print(sum.Render())
		if err := sum.Check(); err != nil {
			return fmt.Errorf("trace self-check: %w", err)
		}
		if st := pl.Stats; sum.Nodes != st.BnBNodes || sum.SimplexIters != st.SimplexIters || sum.LURefactors != st.LURefactors {
			return fmt.Errorf("trace self-check: trace counts %d nodes, %d iters, %d refactors; the answer %d, %d, %d",
				sum.Nodes, sum.SimplexIters, sum.LURefactors, st.BnBNodes, st.SimplexIters, st.LURefactors)
		}
	}
	if flightRec != nil {
		d := flightRec.Dump()
		f, err := os.Create(*flightOut)
		if err != nil {
			return err
		}
		if err := d.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("flight      : %d of %d events retained (%d dropped) -> %s\n",
			len(d.Events), d.Seen, d.Dropped, *flightOut)
	}
	fmt.Printf("status      : %v\n", pl.Status)
	fmt.Printf("solve time  : %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("variables   : %d\n", pl.Stats.Variables)
	fmt.Printf("constraints : %d\n", pl.Stats.Constraints)
	if pl.Status != core.StatusOptimal && pl.Status != core.StatusFeasible {
		return nil
	}
	fmt.Printf("total rules : %d\n", pl.TotalRules)
	fmt.Printf("objective   : %g\n", pl.Objective)
	if opts.Objective == core.ObjMinMaxLoad {
		fmt.Printf("max load    : %.1f%%\n", 100*pl.MaxLoad)
	}

	tablesSp := spanTrace.Span("tables")
	net, err := pl.BuildTables(prob)
	if err != nil {
		return err
	}
	tablesSp.SetCount("switches", int64(len(net.Tables)))
	tablesSp.End()
	// Per-switch usage summary.
	ids := make([]topology.SwitchID, 0, len(net.Tables))
	for id := range net.Tables {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	fmt.Println("per-switch usage:")
	for _, id := range ids {
		sw, _ := prob.Network.Switch(id)
		fmt.Printf("  switch %4d: %4d / %d\n", id, net.Tables[id].Size(), sw.Capacity)
	}
	if *tables {
		for _, id := range ids {
			fmt.Print(net.Tables[id])
		}
	}
	if *doVerify {
		verifySp := spanTrace.Span("verify")
		viol := verify.Semantics(net, prob.Routing, pl.Policies, verify.Config{Seed: 1, Span: verifySp})
		verifySp.End()
		if len(viol) == 0 {
			fmt.Println("verification: OK (sampled semantics preserved)")
		} else {
			fmt.Printf("verification: %d VIOLATIONS\n", len(viol))
			for _, v := range viol {
				fmt.Println("  ", v)
			}
			return fmt.Errorf("placement failed verification")
		}
		if cv := verify.Capacities(net, prob.Network); len(cv) > 0 {
			for _, v := range cv {
				fmt.Println("  capacity:", v)
			}
			return fmt.Errorf("capacity verification failed")
		}
	}
	return nil
}
