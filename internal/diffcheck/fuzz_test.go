package diffcheck

import (
	"testing"
	"time"

	"rulefit/internal/randgen"
	"rulefit/internal/verify"
)

// FuzzPlaceDifferential lets the fuzzer drive the quick-suite seed
// space: each input seed derives a full instance configuration
// (topology family, sizes, width, overlap, capacity profile), and the
// instance is cross-checked ILP vs SAT vs exhaustive with data-plane
// verification. Coverage feedback steers the fuzzer toward seeds that
// reach unusual solver paths — corners a fixed seed sweep misses.
func FuzzPlaceDifferential(f *testing.F) {
	for _, s := range []int64{1, 2, 17, 42, 45, 1000003} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		cfg := randgen.FromSeed(seed)
		// Keep per-exec cost bounded: quick-suite configs are already
		// tiny, but cap the rule count against future FromSeed changes.
		if cfg.RulesPerPolicy > 8 {
			cfg.RulesPerPolicy = 8
		}
		inst, err := randgen.Generate(cfg)
		if err != nil {
			t.Skip("ungeneratable config")
		}
		opts := Options{
			SATTimeLimit: 2 * time.Second,
			Metamorphic:  seed%8 == 0,
			Verify:       verify.Config{SamplesPerRule: 2, RandomSamples: 4, MaxViolations: 3, Seed: seed},
		}
		res := Check(inst, opts)
		for _, fl := range res.Failures {
			t.Errorf("seed %d (%v): %s", seed, inst.Config.Topo, fl)
		}
	})
}
