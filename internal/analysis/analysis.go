// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// used by this repository's custom lint suite (cmd/rulefitlint).
//
// The x/tools module is deliberately not a dependency: the checkers here
// need only syntax trees, type information and a package loader, all of
// which the standard library provides. The API mirrors x/tools closely
// enough that the analyzers could be ported to real go/analysis drivers
// by swapping import paths.
//
// Suppression: every analyzer honors a line directive of the form
//
//	//lint:<name> <reason>
//
// placed on the flagged line or the line directly above it, where <name>
// is the analyzer name (floatcmp also accepts its documented alias
// "exactfloat"). Suppressions should carry a one-line reason.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is the short command-line identifier (also the suppression
	// directive name).
	Name string
	// Doc is the one-paragraph description of the check.
	Doc string
	// FactTypes lists the fact types the analyzer exports and imports
	// (each entry a typed nil pointer, e.g. (*ReturnsTaint)(nil)).
	// Declaring them documents the analyzer's cross-package surface.
	FactTypes []Fact
	// Run applies the check to one package, reporting findings through
	// the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts is the run-wide fact store (see facts.go). The driver sets
	// it; packages are analyzed in dependency order so facts exported
	// by an imported package are visible here.
	Facts *FactSet

	// Report receives each diagnostic. The driver sets it.
	Report func(Diagnostic)

	// directives maps file line numbers to the set of //lint: directive
	// names present on that line (computed once per package).
	directives map[string]map[int]map[string]bool
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Category string // analyzer name
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Category)
}

// Reportf reports a diagnostic at pos unless a matching //lint:
// suppression directive covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.suppressed(position, p.Analyzer.Name) {
		return
	}
	p.Report(Diagnostic{Pos: position, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Suppressed reports whether a //lint:<name> directive covers pos (same
// line or the line directly above). Exposed for analyzers with aliased
// directive names (floatcmp/exactfloat).
func (p *Pass) Suppressed(pos token.Pos, name string) bool {
	return p.suppressed(p.Fset.Position(pos), name)
}

func (p *Pass) suppressed(pos token.Position, name string) bool {
	if p.directives == nil {
		p.directives = collectDirectives(p.Fset, p.Files)
	}
	lines := p.directives[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line][name] || lines[pos.Line-1][name]
}

// collectDirectives scans comments for //lint:<name>... markers.
func collectDirectives(fset *token.FileSet, files []*ast.File) map[string]map[int]map[string]bool {
	out := make(map[string]map[int]map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, "//lint:") {
					continue
				}
				rest := strings.TrimPrefix(text, "//lint:")
				name := rest
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					name = rest[:i]
				}
				if name == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					out[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = make(map[string]bool)
					lines[pos.Line] = set
				}
				set[name] = true
			}
		}
	}
	return out
}

// IsFloat reports whether t's underlying type is a floating-point basic
// type (helper shared by float-sensitive analyzers).
func IsFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// NamedFrom reports whether t (after pointer stripping) is the named
// type pkgPath.name, resolving aliases.
func NamedFrom(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// RunAnalyzers applies each analyzer to each package, returning all
// diagnostics in deterministic (file, line, column, analyzer) order.
// Packages are visited in dependency order with one fresh fact store,
// so facts exported while analyzing a package are visible when its
// importers are analyzed.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := newFactSet()
	var diags []Diagnostic
	for _, pkg := range dependencyOrder(pkgs) {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Facts:     facts,
				Report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// dependencyOrder sorts packages so every package follows the packages
// it imports (restricted to the given set). Ties keep the input order,
// so output is deterministic for a deterministic loader.
func dependencyOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	out := make([]*Package, 0, len(pkgs))
	state := make(map[string]int, len(pkgs)) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		switch state[p.ImportPath] {
		case 1, 2:
			// Import cycles cannot occur in valid Go; "visiting" is
			// only reachable through one and is simply cut.
			return
		}
		state[p.ImportPath] = 1
		for _, imp := range p.Imports {
			if dep, ok := byPath[imp]; ok {
				visit(dep)
			}
		}
		state[p.ImportPath] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// sortDiagnostics orders findings by (file, line, column, analyzer).
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Category < b.Category
	})
}
