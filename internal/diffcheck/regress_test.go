package diffcheck

import (
	"path/filepath"
	"testing"
	"time"

	"rulefit/internal/verify"
)

// TestRegressions auto-replays every fixture under
// testdata/regressions/ (delta-oracle fixtures under its delta/
// directory) through the oracle it names. Fixtures land here two ways:
// cmd/diffcheck and the delta suite write shrunk reproducers for every
// failure, and interesting instances and delta streams are exported by
// hand. Either way, once committed they are tier-1 tests forever.
func TestRegressions(t *testing.T) {
	var paths []string
	for _, pattern := range []string{"*.json", "delta/*.json"} {
		matched, err := filepath.Glob(filepath.Join("testdata", "regressions", pattern))
		if err != nil {
			t.Fatal(err)
		}
		if len(matched) == 0 {
			t.Fatalf("no regression fixtures match %s; the loader is miswired", pattern)
		}
		paths = append(paths, matched...)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			fix, err := LoadFixture(path)
			if err != nil {
				t.Fatal(err)
			}
			failures, err := fix.Replay(Options{
				Metamorphic:  true,
				SATTimeLimit: 2 * time.Second,
				Verify:       verify.Config{SamplesPerRule: 4, RandomSamples: 8, MaxViolations: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range failures {
				t.Errorf("%s: %s (note: %s)", path, f, fix.Note)
			}
		})
	}
}
