package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	// Imports lists imported package paths (the driver uses it to
	// order analysis so fact producers run before consumers).
	Imports []string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load lists, parses and type-checks the packages matching the patterns,
// resolving imports through compiler export data produced by
// `go list -export`. dir is the working directory for the go command
// ("" means the current directory). Test files are not loaded: the lint
// suite targets shipped code.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string)
	var targets []listedPackage
	for _, lp := range listed {
		if lp.Error != nil && !lp.DepOnly {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly && !lp.Standard {
			targets = append(targets, lp)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(exp)
	})

	var out []*Package
	for _, lp := range targets {
		pkg, err := typeCheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// goList runs `go list -e -export -deps -json` over the patterns. The
// "--" keeps an argument that starts with a dash a pattern, which then
// fails to load, rather than a go list flag.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}
	var out []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// typeCheck parses and type-checks one listed package.
func typeCheck(fset *token.FileSet, imp types.Importer, lp listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type errors in %s:\n  %s", lp.ImportPath, strings.Join(typeErrs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %v", lp.ImportPath, err)
	}
	return &Package{
		ImportPath: lp.ImportPath,
		Dir:        lp.Dir,
		Imports:    lp.Imports,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
