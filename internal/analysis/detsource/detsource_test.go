package detsource_test

import (
	"testing"

	"rulefit/internal/analysis/analysistest"
	"rulefit/internal/analysis/detsource"
)

func TestDetSource(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), detsource.Analyzer, "a")
}

// TestDetSourceCrossPackage loads both fixture packages together:
// taint originates in taintsrc and reports at sinks in taintuse,
// carried by ReturnsTaint facts across the export-data boundary.
func TestDetSourceCrossPackage(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), detsource.Analyzer, "taintsrc", "taintuse")
}

// TestDetSourceCatchesSolverMapOrderLeak pins the acceptance case: a
// deliberate map-order leak in a solver-shaped Place return path is
// caught at both sink kinds.
func TestDetSourceCatchesSolverMapOrderLeak(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), detsource.Analyzer, "solverleak")
}
