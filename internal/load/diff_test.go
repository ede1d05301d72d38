package load

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rulefit/internal/bench"
)

// TestDiffRenderGolden pins the rendered comparison of a fixture pair
// that covers every verdict class (improved, wall and status
// regressions, placement drift, added and removed requests), shed and
// knee movement and the host-mismatch warning, followed by the same
// pair replayed as a different workload and mode (drift unchecked).
func TestDiffRenderGolden(t *testing.T) {
	dir := filepath.Join("testdata", "diff")
	old, err := ReadReport(filepath.Join(dir, "old.json"))
	if err != nil {
		t.Fatal(err)
	}
	new, err := ReadReport(filepath.Join(dir, "new.json"))
	if err != nil {
		t.Fatal(err)
	}
	other := *new
	other.Workload.Fingerprint = "0123456789abcdef"
	other.Config.Mode = "closed"
	var buf bytes.Buffer
	for _, n := range []*Report{new, &other} {
		if err := CompareReports(old, n, bench.DiffOptions{WallThreshold: 0.25, MinWallMS: 5}).Render(&buf); err != nil {
			t.Fatal(err)
		}
	}

	goldenPath := filepath.Join(dir, "golden.txt")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("render drifted from golden (re-run with -update if intended):\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
