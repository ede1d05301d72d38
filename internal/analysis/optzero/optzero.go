// Package optzero flags suspicious zero-value solver/verifier option
// literals in non-test code. An ilp.Options with neither TimeLimit nor
// NodeLimit lets branch & bound run unbounded on a hard instance; a
// fully-empty verify.Config silently relies on implicit sampling
// defaults and an implicit seed. Production call sites must state their
// limits; genuinely intentional zero values can be annotated
//
//	//lint:optzero <why unbounded/default is acceptable here>
package optzero

import (
	"go/ast"

	"rulefit/internal/analysis"
)

// checked describes one option struct and the fields that bound it.
type checked struct {
	pkgPath string
	name    string
	// bounding lists field names at least one of which must be set.
	bounding []string
	// emptyOnly restricts the check to completely empty literals.
	emptyOnly bool
	message   string
}

var checkedTypes = []checked{
	{
		pkgPath:  "rulefit/internal/ilp",
		name:     "Options",
		bounding: []string{"TimeLimit", "NodeLimit"},
		message:  "ilp.Options without TimeLimit or NodeLimit: branch & bound may run unbounded",
	},
	{
		pkgPath:   "rulefit/internal/verify",
		name:      "Config",
		emptyOnly: true,
		message:   "zero-value verify.Config relies on implicit sampling defaults; set Seed and effort fields explicitly",
	},
	{
		pkgPath:  "rulefit/internal/daemon",
		name:     "Config",
		bounding: []string{"MaxInFlight"},
		message:  "daemon.Config without MaxInFlight: admission falls back to GOMAXPROCS implicitly; state the concurrency bound",
	},
	{
		pkgPath:   "rulefit/internal/obs",
		name:      "HistogramOpts",
		emptyOnly: true,
		message:   "zero-value obs.HistogramOpts adopts the implicit default bucket layout; state Start/Factor/Count",
	},
	{
		pkgPath:   "rulefit/internal/obs",
		name:      "FlightOpts",
		emptyOnly: true,
		message:   "zero-value obs.FlightOpts adopts the implicit default ring size; state Size",
	},
	{
		pkgPath:  "rulefit/internal/load",
		name:     "Config",
		bounding: []string{"Requests", "Duration"},
		message:  "load.Config without Requests or Duration: the replay length falls back to an implicit default; state the run bound",
	},
}

// Analyzer flags unbounded option literals.
var Analyzer = &analysis.Analyzer{
	Name: "optzero",
	Doc:  "flags zero-value ilp.Options/verify.Config literals missing limits in non-test code",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[lit]
			if !ok {
				return true
			}
			for _, c := range checkedTypes {
				if !analysis.NamedFrom(tv.Type, c.pkgPath, c.name) {
					continue
				}
				if c.emptyOnly {
					if len(lit.Elts) == 0 {
						pass.Reportf(lit.Pos(), "%s (//lint:optzero to accept)", c.message)
					}
				} else if !setsAnyField(lit, c.bounding) {
					pass.Reportf(lit.Pos(), "%s (//lint:optzero to accept)", c.message)
				}
			}
			return true
		})
	}
	return nil
}

// setsAnyField reports whether the literal explicitly sets one of the
// named fields. Positional literals are treated as setting everything.
func setsAnyField(lit *ast.CompositeLit, names []string) bool {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return true // positional literal: all fields present
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		for _, want := range names {
			if key.Name == want {
				return true
			}
		}
	}
	return false
}
