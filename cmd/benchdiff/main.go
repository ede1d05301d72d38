// Command benchdiff is the one comparison gate for rulefit reports. It
// reads the old report's schema and runs that family's comparison:
//
//   - rulefit-bench/v1 (BENCH_*.json): runs align by
//     capacity/rules/seed. A run regresses when its wall clock
//     moves more than -min-wall-ms AND more than -threshold, or when its
//     solve outcome worsens (e.g. optimal -> limit). Node/iteration
//     drift is reported separately: the solver is deterministic, so
//     drift means the search changed, not that the machine was busy.
//   - rulefit-load/v1 (cmd/ruleload): requests align by issue index
//     under the same noise model; a changed placement hash (drift) or a
//     lower sweep knee also fails.
//
// Usage:
//
//	benchdiff OLD.json NEW.json     compare two reports of one schema
//	benchdiff -dir .                compare the two latest rulefit-bench/v1 BENCH_*.json in a directory
//	benchdiff -check FILE           validate one report against its schema
//
// Exit status: 0 clean; 1 on a regression, drift, a lower knee, or
// (-check) a delta report that records a warm/cold identity mismatch;
// 2 on usage or read errors. -advisory turns a comparison's 1 into 0.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rulefit/internal/bench"
	"rulefit/internal/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// diff is a comparison of either report family.
type diff interface {
	Render(io.Writer) error
	HasRegressions() bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir       = fs.String("dir", "", "compare the two lexically-latest rulefit-bench/v1 BENCH_*.json in this directory")
		threshold = fs.Float64("threshold", 0.25, "relative wall-clock slowdown tolerated before a run or request regresses")
		minWallMS = fs.Float64("min-wall-ms", 5, "absolute wall-clock change (ms) required before a run or request can regress")
		jsonOut   = fs.Bool("json", false, "emit the diff as JSON instead of text")
		advisory  = fs.Bool("advisory", false, "report regressions but exit 0 (CI advisory mode)")
		check     = fs.String("check", "", "validate FILE against its report schema and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var oldPath, newPath string
	var err error
	switch {
	case *check != "" && *dir == "" && fs.NArg() == 0:
		return checkReport(*check, stdout, stderr)
	case *dir != "" && *check == "" && fs.NArg() == 0:
		oldPath, newPath, err = bench.LatestPair(*dir)
	case *dir == "" && *check == "" && fs.NArg() == 2:
		oldPath, newPath = fs.Arg(0), fs.Arg(1)
	default:
		err = errors.New("usage: benchdiff [flags] OLD.json NEW.json | benchdiff [flags] -dir DIR | benchdiff -check FILE")
	}
	if err != nil {
		return failed(stderr, err)
	}

	d, err := compare(oldPath, newPath, bench.DiffOptions{WallThreshold: *threshold, MinWallMS: *minWallMS})
	if err != nil {
		return failed(stderr, err)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(d)
	} else {
		err = d.Render(stdout)
	}
	if err != nil {
		return failed(stderr, err)
	}
	if d.HasRegressions() && !*advisory {
		return 1
	}
	return 0
}

// open reads the report at path as the type its schema names.
func open(path string) (any, error) {
	env, err := bench.ReadEnvelope(path)
	if err != nil {
		return nil, err
	}
	switch env.Schema {
	case bench.ReportSchema:
		return bench.ReadReport(path)
	case load.ReportSchema:
		return load.ReadReport(path)
	}
	return nil, fmt.Errorf("%s: unknown schema %q, want %q or %q", path, env.Schema, bench.ReportSchema, load.ReportSchema)
}

// compare runs the comparison two reports of one schema call for.
func compare(oldPath, newPath string, opts bench.DiffOptions) (diff, error) {
	o, err := open(oldPath)
	if err != nil {
		return nil, err
	}
	n, err := open(newPath)
	if err != nil {
		return nil, err
	}
	switch o := o.(type) {
	case *bench.Report:
		if n, ok := n.(*bench.Report); ok {
			return bench.CompareReports(o, n, opts), nil
		}
	case *load.Report:
		if n, ok := n.(*load.Report); ok {
			return load.CompareReports(o, n, opts), nil
		}
	}
	return nil, fmt.Errorf("%s and %s carry different schemas", oldPath, newPath)
}

// checkReport validates one report against its schema. Delta reports
// carry their own pass/fail: every warm answer must hash identically
// to its cold re-solve.
func checkReport(path string, stdout, stderr io.Writer) int {
	rep, err := open(path)
	if err != nil {
		return failed(stderr, err)
	}
	switch rep := rep.(type) {
	case *bench.Report:
		fmt.Fprintf(stdout, "%s: schema %s ok (%d series)\n", path, rep.Schema, len(rep.Series))
	case *load.Report:
		if rep.Delta != nil && rep.Delta.Mismatched > 0 {
			fmt.Fprintf(stderr, "benchdiff: %s: delta report records %d warm/cold identity mismatches\n",
				path, rep.Delta.Mismatched)
			return 1
		}
		fmt.Fprintf(stdout, "%s: schema %s ok (%d requests, fingerprint %s)\n",
			path, rep.Schema, rep.Total, rep.Workload.Fingerprint)
	}
	return 0
}

// failed reports a usage or read error and returns its exit status.
func failed(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "benchdiff:", err)
	return 2
}
