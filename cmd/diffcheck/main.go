// Command diffcheck runs long differential-testing soaks: it generates
// seeded random placement instances (internal/randgen), cross-checks the
// ILP, SAT, and exhaustive oracles plus the metamorphic property battery
// on each (internal/diffcheck), shrinks any failing instance to a
// minimal reproducer, and writes it as a regression fixture that the
// tier-1 test suite replays forever after.
//
// -replay takes any rulefit-diffcheck/v1 fixture: one that carries
// deltas replays through the delta-vs-cold oracle, any other through
// the harness above.
//
// Usage:
//
//	diffcheck [-n 200] [-seed0 1] [-soak 10m] [-profile quick|soak]
//	          [-out internal/diffcheck/testdata/regressions]
//	          [-metamorphic] [-max-failures 5] [-v]
//	diffcheck -replay fixture.json
//	diffcheck -export seed -out dir [-note text]
//
// Exit status is non-zero if any instance failed (or a replay fails).
// Each instance is placed once on the ILP side; that the branch & bound
// pool size cannot change an answer is tested in internal/ilp.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/diffcheck"
	"rulefit/internal/randgen"
	"rulefit/internal/verify"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "diffcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n           = flag.Int("n", 200, "number of instances to check (ignored with -soak)")
		seed0       = flag.Int64("seed0", 1, "first seed")
		soak        = flag.Duration("soak", 0, "run until this much time has passed (0 = use -n)")
		profile     = flag.String("profile", "quick", "instance size profile: quick or soak")
		outDir      = flag.String("out", "internal/diffcheck/testdata/regressions", "directory for shrunk failure fixtures")
		metamorphic = flag.Bool("metamorphic", true, "run the metamorphic property battery")
		maxFailures = flag.Int("max-failures", 5, "stop after this many failing instances")
		satLimit    = flag.Duration("sat-limit", 10*time.Second, "time budget for the SAT oracle per instance (0 = unlimited)")
		replay      = flag.String("replay", "", "replay one fixture file instead of soaking")
		export      = flag.Int64("export", 0, "export the instance for this seed as a fixture and exit")
		note        = flag.String("note", "", "note recorded in written fixtures")
		verbose     = flag.Bool("v", false, "log every instance")
	)
	flag.Parse()

	opts := diffcheck.Options{
		Metamorphic:  *metamorphic,
		SATTimeLimit: *satLimit,
		Verify:       verify.Config{SamplesPerRule: 4, RandomSamples: 8, MaxViolations: 3},
	}

	if *replay != "" {
		return replayFixture(*replay, opts)
	}

	makeCfg := randgen.FromSeed
	if *profile == "soak" {
		makeCfg = randgen.SoakConfig
	} else if *profile != "quick" {
		return fmt.Errorf("unknown profile %q", *profile)
	}

	if *export != 0 {
		cfg := makeCfg(*export)
		inst, err := randgen.Generate(cfg)
		if err != nil {
			return err
		}
		fix := diffcheck.NewFixture(inst, opts.Core, *note)
		path := filepath.Join(*outDir, fmt.Sprintf("seed%d.json", *export))
		if err := fix.WriteFile(path); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}

	start := time.Now()
	deadline := time.Time{}
	if *soak > 0 {
		deadline = start.Add(*soak)
	}
	var checked, failures, infeasible, exhaustive, satUnproven int
	for seed := *seed0; ; seed++ {
		if deadline.IsZero() {
			if checked >= *n {
				break
			}
		} else if time.Now().After(deadline) {
			break
		}
		cfg := makeCfg(seed)
		inst, err := randgen.Generate(cfg)
		if err != nil {
			return fmt.Errorf("seed %d: generate: %w", seed, err)
		}
		opts.Verify.Seed = seed
		res := diffcheck.Check(inst, opts)
		checked++
		if res.ILP != nil && res.ILP.Status == core.StatusInfeasible {
			infeasible++
		}
		if res.Exhaustive != nil {
			exhaustive++
		}
		if res.SATUnproven {
			satUnproven++
		}
		if *verbose {
			fmt.Printf("seed %d: %s (%s)\n", seed, res.Summary(), cfg.Topo)
		}
		if res.Failed() {
			failures++
			fmt.Printf("FAIL seed %d: %s\n", seed, res.Summary())
			shrunk := diffcheck.Shrink(inst, opts, 0)
			kind := res.Failures[0].Kind
			fixNote := *note
			if fixNote == "" {
				fixNote = fmt.Sprintf("shrunk from seed %d, first failure %s", seed, res.Failures[0])
			}
			fix := diffcheck.NewFixture(shrunk, opts.Core, fixNote)
			path := filepath.Join(*outDir, fmt.Sprintf("seed%d_%s.json", seed, kind))
			if err := fix.WriteFile(path); err != nil {
				return fmt.Errorf("writing fixture: %w", err)
			}
			fmt.Printf("  shrunk reproducer written to %s (%d switches, %d policies)\n",
				path, shrunk.Problem.Network.NumSwitches(), len(shrunk.Problem.Policies))
			if failures >= *maxFailures {
				fmt.Println("stopping: max failures reached")
				break
			}
		}
	}
	fmt.Printf("checked %d instances in %v: %d failures, %d infeasible, %d with exhaustive oracle, %d SAT timeouts\n",
		checked, time.Since(start).Round(time.Millisecond), failures, infeasible, exhaustive, satUnproven)
	if failures > 0 {
		return fmt.Errorf("%d failing instances", failures)
	}
	return nil
}

// replayFixture re-runs one committed fixture through the oracle it
// names: the delta oracle when it carries deltas, the full harness
// otherwise.
func replayFixture(path string, opts diffcheck.Options) error {
	fix, err := diffcheck.LoadFixture(path)
	if err != nil {
		return err
	}
	failures, err := fix.Replay(opts)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s\n", path, failures.Summary())
	if failures.Failed() {
		return fmt.Errorf("fixture still failing")
	}
	return nil
}
