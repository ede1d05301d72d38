package diffcheck

import (
	"path/filepath"
	"testing"
	"time"

	"rulefit/internal/verify"
)

// TestRegressions auto-replays every fixture under
// testdata/regressions/ through the full differential harness. Fixtures
// land here two ways: cmd/diffcheck writes shrunk reproducers for every
// soak failure, and interesting instances are exported by hand with
// -export. Either way, once committed they are tier-1 tests forever.
func TestRegressions(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "regressions", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no regression fixtures found; the loader is miswired")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			fix, err := LoadFixture(path)
			if err != nil {
				t.Fatal(err)
			}
			inst, coreOpts, err := fix.Instance()
			if err != nil {
				t.Fatal(err)
			}
			res := Check(inst, Options{
				Core:         coreOpts,
				Metamorphic:  true,
				SATTimeLimit: 2 * time.Second,
				Verify:       verify.Config{SamplesPerRule: 4, RandomSamples: 8, MaxViolations: 3, Seed: fix.Seed},
			})
			for _, f := range res.Failures {
				t.Errorf("%s: %s (note: %s)", path, f, fix.Note)
			}
		})
	}
}
