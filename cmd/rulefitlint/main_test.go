package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// findingRE is the driver's finding line: file:line:col: message (analyzer).
var findingRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+) \((\w+)\)$`)

// TestRunExitCodes runs the driver on a fixture with known findings, a
// clean package and patterns that do not load.
func TestRunExitCodes(t *testing.T) {
	t.Run("findings", func(t *testing.T) {
		fixture := filepath.Join("..", "..", "internal", "analysis", "floatcmp", "testdata", "src", "a", "a.go")
		src, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		// Every finding the suite reports on this fixture is one of its
		// floatcmp want lines, and every want line is reported.
		want := map[int]bool{}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, "// want ") {
				want[i+1] = true
			}
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"rulefit/internal/analysis/floatcmp/testdata/src/a"}, &stdout, &stderr); code != 1 {
			t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
		}
		got := map[int]bool{}
		for _, line := range strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n") {
			m := findingRE.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("line %q is not file:line:col: message (analyzer)", line)
				continue
			}
			n, _ := strconv.Atoi(m[2])
			if filepath.Base(m[1]) != "a.go" || m[5] != "floatcmp" || got[n] {
				t.Errorf("unexpected finding %q", line)
			}
			got[n] = true
		}
		for n := range want {
			if !got[n] {
				t.Errorf("no finding for a.go:%d", n)
			}
		}
		for n := range got {
			if !want[n] {
				t.Errorf("finding on a.go:%d, which has no want line", n)
			}
		}
	})
	for _, tc := range []struct {
		name, pattern string
		code          int
	}{
		{"clean", "rulefit/internal/invariant", 0},
		{"load error", "rulefit/internal/nosuchpackage", 2},
		// The driver defines no flag: a dash argument is a bad pattern.
		{"flag", "-json", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{tc.pattern}, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stdout %q, stderr %q", code, tc.code, stdout.String(), stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout %q, want no findings", stdout.String())
			}
			if (tc.code == 2) != strings.HasPrefix(stderr.String(), "rulefitlint: ") {
				t.Errorf("stderr %q for exit %d", stderr.String(), tc.code)
			}
		})
	}
}
