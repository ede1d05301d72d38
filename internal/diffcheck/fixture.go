package diffcheck

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rulefit/internal/core"
	"rulefit/internal/match"
	"rulefit/internal/randgen"
	"rulefit/internal/spec"
)

// FixtureSchema identifies the regression-fixture JSON format. Fields
// are additive-only: renaming or removing one breaks every committed
// fixture under testdata/regressions/.
const FixtureSchema = "rulefit-diffcheck/v1"

// Fixture is a self-contained reproducer: a fully explicit problem
// (spec form, no generators) plus the solver options it failed under.
// cmd/diffcheck writes these after shrinking; the regression test in
// regress_test.go replays every committed fixture through Check.
type Fixture struct {
	Schema  string         `json:"schema"`
	Note    string         `json:"note,omitempty"`
	Seed    int64          `json:"seed,omitempty"`
	Options FixtureOptions `json:"options"`
	Problem *spec.Problem  `json:"problem"`
}

// FixtureOptions is the JSON form of the core options a fixture runs
// under. Only options that change the encoding are recorded.
type FixtureOptions struct {
	// Objective is "", "total-rules", "traffic", or "weighted-switches".
	Objective       string `json:"objective,omitempty"`
	Merging         bool   `json:"merging,omitempty"`
	PathSlicing     bool   `json:"pathSlicing,omitempty"`
	RemoveRedundant bool   `json:"removeRedundant,omitempty"`
}

// CoreOptions materializes the recorded options.
func (fo FixtureOptions) CoreOptions() (core.Options, error) {
	var o core.Options
	switch fo.Objective {
	case "", "total-rules":
		o.Objective = core.ObjTotalRules
	case "traffic":
		o.Objective = core.ObjTraffic
	case "weighted-switches":
		o.Objective = core.ObjWeightedSwitches
	default:
		return o, fmt.Errorf("diffcheck: unknown objective %q", fo.Objective)
	}
	o.Merging = fo.Merging
	o.PathSlicing = fo.PathSlicing
	o.RemoveRedundant = fo.RemoveRedundant
	return o, nil
}

// fixtureOptions records the encoding-relevant core options.
func fixtureOptions(o core.Options) FixtureOptions {
	fo := FixtureOptions{
		Merging:         o.Merging,
		PathSlicing:     o.PathSlicing,
		RemoveRedundant: o.RemoveRedundant,
	}
	switch o.Objective {
	case core.ObjTraffic:
		fo.Objective = "traffic"
	case core.ObjWeightedSwitches:
		fo.Objective = "weighted-switches"
	}
	return fo
}

// NewFixture converts an instance into a committed-fixture form.
func NewFixture(inst *randgen.Instance, coreOpts core.Options, note string) *Fixture {
	return &Fixture{
		Schema:  FixtureSchema,
		Note:    note,
		Seed:    inst.Config.Seed,
		Options: fixtureOptions(coreOpts),
		Problem: spec.FromCore(inst.Problem),
	}
}

// Instance rebuilds the runnable instance from the fixture. The
// randgen.Config carries only the seed and inferred policy width (used
// by Check to decide on exhaustive header verification).
func (f *Fixture) Instance() (*randgen.Instance, core.Options, error) {
	if f.Schema != FixtureSchema {
		return nil, core.Options{}, fmt.Errorf("diffcheck: fixture schema %q, want %q", f.Schema, FixtureSchema)
	}
	opts, err := f.Options.CoreOptions()
	if err != nil {
		return nil, core.Options{}, err
	}
	prob, err := f.Problem.Build()
	if err != nil {
		return nil, core.Options{}, fmt.Errorf("diffcheck: fixture problem: %w", err)
	}
	if err := prob.Validate(); err != nil {
		return nil, core.Options{}, fmt.Errorf("diffcheck: fixture problem: %w", err)
	}
	cfg := randgen.Config{Seed: f.Seed}
	if len(prob.Policies) > 0 {
		if w := prob.Policies[0].Width(); w != match.HeaderWidth {
			cfg.Width = w
		}
	}
	return &randgen.Instance{Config: cfg, Problem: prob}, opts, nil
}

// WriteFile writes the fixture as indented JSON.
func (f *Fixture) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadFixture reads a fixture file.
func LoadFixture(path string) (*Fixture, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f Fixture
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("diffcheck: %s: %w", path, err)
	}
	return &f, nil
}
