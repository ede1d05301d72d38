package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunExitCodes drives the CLI over both report schemas and pins
// its exit contract: 0 clean, 1 regression or identity mismatch
// (0 under -advisory for a comparison), 2 usage or read error.
func TestRunExitCodes(t *testing.T) {
	const (
		benchOld = "../../internal/bench/testdata/diff/BENCH_20260801T000000Z.json"
		benchNew = "../../internal/bench/testdata/diff/BENCH_20260802T000000Z.json"
		loadOld  = "../../internal/load/testdata/diff/old.json"
		loadNew  = "../../internal/load/testdata/diff/new.json"
		delta    = "../../BENCH_delta_20260807T183706Z.json"
	)
	tmp := t.TempDir()
	write := func(name, data string) string {
		p := filepath.Join(tmp, name)
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	unknown := write("unknown.json", `{"schema":"rulefit-other/v1"}`)
	mismatched := write("delta-mismatched.json", `{"schema":"rulefit-load/v1","delta":{"mismatched":2}}`)

	for _, tc := range []struct {
		name string
		args []string
		want int
		out  string // substring of stdout
	}{
		{"bench self-diff", []string{benchOld, benchOld}, 0, "RESULT: PASS"},
		{"load self-diff", []string{loadOld, loadOld}, 0, "RESULT: PASS"},
		{"bench regression", []string{benchOld, benchNew}, 1, "RESULT: FAIL"},
		{"load regression", []string{loadOld, loadNew}, 1, "RESULT: FAIL"},
		{"bench regression advisory", []string{"-advisory", benchOld, benchNew}, 0, "RESULT: FAIL"},
		{"load regression advisory", []string{"-advisory", loadOld, loadNew}, 0, "RESULT: FAIL"},
		{"load regression json", []string{"-json", loadOld, loadNew}, 1, `"knee_regressed": true`},
		{"latest bench pair skips load reports", []string{"-advisory", "-dir", "../.."}, 0, "RESULT:"},
		{"check bench", []string{"-check", benchOld}, 0, "schema rulefit-bench/v1 ok"},
		{"check delta", []string{"-check", delta}, 0, "schema rulefit-load/v1 ok"},
		{"check delta mismatched", []string{"-check", mismatched}, 1, ""},
		{"check delta mismatched advisory", []string{"-advisory", "-check", mismatched}, 1, ""},
		{"check unknown schema", []string{"-check", unknown}, 2, ""},
		{"unknown schema", []string{unknown, unknown}, 2, ""},
		{"mixed schemas", []string{benchOld, loadOld}, 2, ""},
		{"missing file", []string{benchOld, filepath.Join(tmp, "absent.json")}, 2, ""},
		{"one positional", []string{benchOld}, 2, ""},
		{"check with positional", []string{"-check", benchOld, benchNew}, 2, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.want, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.out) {
				t.Fatalf("stdout missing %q:\n%s", tc.out, stdout.String())
			}
		})
	}
}
