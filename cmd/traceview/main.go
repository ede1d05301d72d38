// Command traceview reads a JSONL solver trace — a full per-request
// trace file written by ruleplace -trace / ruleplaced -trace-dir, or a
// partial flight-recorder dump written by the daemon on a deadline,
// node-limit, shed, or panic (flight-<trace_id>.jsonl) — and prints
// the search summary: node-outcome histogram, gap convergence, final
// status, and, for flight dumps, the loss accounting (events retained
// vs seen, dropped under contention).
//
// Usage:
//
//	traceview [-json] [-check] file.jsonl
//	cat dump.jsonl | traceview
//
// -json emits the summary as JSON instead of the human report.
// -check exits nonzero if a full trace fails its internal-consistency
// accounting: it must be empty (the answer ran no ILP solve) or end in
// a done event, and its node events' outcomes must sum to the done
// events' node totals. Partial flight dumps are recognized by their
// flight_meta header and excused.
// The effort line reads the done events' iteration and LU
// refactorization totals, summed over the trace's solves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"rulefit/internal/obs/traceview"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "traceview:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		asJSON = flag.Bool("json", false, "emit the summary as JSON")
		check  = flag.Bool("check", false, "fail on internal-consistency errors")
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	switch flag.NArg() {
	case 0:
	case 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		flag.Usage()
		return fmt.Errorf("at most one trace file")
	}

	sum, err := traceview.Summarize(in)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return err
		}
	} else {
		fmt.Print(sum.Render())
	}
	if *check {
		if err := sum.Check(); err != nil {
			return fmt.Errorf("consistency check: %w", err)
		}
	}
	return nil
}
