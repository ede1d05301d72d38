package rulefit_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunsCheckStages keeps CI and scripts/check.sh from drifting
// apart: every run step in .github/workflows must be
// "./scripts/check.sh <stage>" naming a stage check.sh dispatches, and
// every stage must be run by some workflow.
func TestCIRunsCheckStages(t *testing.T) {
	script, err := os.ReadFile(filepath.Join("scripts", "check.sh"))
	if err != nil {
		t.Fatal(err)
	}
	ran := map[string]bool{} // stage check.sh dispatches -> run by a workflow
	for _, m := range regexp.MustCompile(`(?m)^stage_([a-z-]+)\(\) \{`).FindAllSubmatch(script, -1) {
		ran[string(m[1])] = false
	}
	workflows, _ := filepath.Glob(filepath.Join(".github", "workflows", "*.yml"))
	if len(ran) == 0 || len(workflows) == 0 {
		t.Fatalf("found %d check.sh stages and %d workflows", len(ran), len(workflows))
	}

	runStep := regexp.MustCompile(`^\s*(?:-\s+)?run:(.*)$`)
	for _, wf := range workflows {
		data, err := os.ReadFile(wf)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := runStep.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			cmd := strings.TrimSpace(m[1])
			stage, isCheck := strings.CutPrefix(cmd, "./scripts/check.sh ")
			if _, ok := ran[stage]; !isCheck || !ok {
				t.Errorf("%s:%d: run step %q is not ./scripts/check.sh <stage> for a stage it dispatches", wf, i+1, cmd)
				continue
			}
			ran[stage] = true
		}
	}
	for stage, ok := range ran {
		if !ok {
			t.Errorf("stage %q of scripts/check.sh runs in no workflow", stage)
		}
	}
}
