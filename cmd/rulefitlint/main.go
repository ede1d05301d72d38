// Command rulefitlint is the repo's custom static-analysis suite: a
// multichecker over the seven analyzers in internal/analysis.
//
//	rulefitlint [packages]
//
// It loads the packages matching the patterns (default ./...), runs
// every analyzer over them in dependency order with one fact store, so
// the dataflow analyzers (detsource, sinkguard) see across package
// boundaries, and prints each finding as
// file:line:col: message (analyzer). It exits 0 when the packages are
// clean, 1 on findings and 2 when they fail to load.
package main

import (
	"fmt"
	"io"
	"os"

	"rulefit/internal/analysis"
	"rulefit/internal/analysis/detsource"
	"rulefit/internal/analysis/errcheck"
	"rulefit/internal/analysis/floatcmp"
	"rulefit/internal/analysis/mapdet"
	"rulefit/internal/analysis/optzero"
	"rulefit/internal/analysis/sharedmut"
	"rulefit/internal/analysis/sinkguard"
)

// suite is the full analyzer set, in report order.
var suite = []*analysis.Analyzer{
	detsource.Analyzer,
	errcheck.Analyzer,
	floatcmp.Analyzer,
	mapdet.Analyzer,
	optzero.Analyzer,
	sharedmut.Analyzer,
	sinkguard.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the packages matching patterns and returns the exit code.
func run(patterns []string, stdout, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "rulefitlint:", err)
		return 2
	}
	diags, err := analysis.RunAnalyzers(pkgs, suite)
	if err != nil {
		fmt.Fprintln(stderr, "rulefitlint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
