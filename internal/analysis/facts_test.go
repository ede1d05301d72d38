package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

// testFact is a representative analyzer fact.
type testFact struct {
	Kind  string
	Count int
}

func (*testFact) AFact() {}

// fakePkg builds a types.Package with a package-level func F, a type T
// with method M, and a package-level var V.
func fakePkg(path string) (pkg *types.Package, fn, method, v types.Object) {
	pkg = types.NewPackage(path, "p")
	f := types.NewFunc(token.NoPos, pkg, "F",
		types.NewSignatureType(nil, nil, nil, nil, nil, false))
	pkg.Scope().Insert(f)
	tn := types.NewTypeName(token.NoPos, pkg, "T", nil)
	named := types.NewNamed(tn, types.NewStruct(nil, nil), nil)
	pkg.Scope().Insert(tn)
	recv := types.NewVar(token.NoPos, pkg, "t", types.NewPointer(named))
	m := types.NewFunc(token.NoPos, pkg, "M",
		types.NewSignatureType(recv, nil, nil, nil, nil, false))
	vv := types.NewVar(token.NoPos, pkg, "V", types.Typ[types.Int])
	pkg.Scope().Insert(vv)
	return pkg, f, m, vv
}

func TestObjectKey(t *testing.T) {
	pkg, fn, method, v := fakePkg("example.com/p")
	_ = pkg
	cases := []struct {
		obj  types.Object
		want string
	}{
		{fn, "example.com/p.F"},
		{method, "example.com/p.T.M"},
		{v, "example.com/p.V"},
		{nil, ""},
		{types.NewVar(token.NoPos, pkg, "local", types.Typ[types.Int]), ""},
	}
	for _, c := range cases {
		if got := ObjectKey(c.obj); got != c.want {
			t.Errorf("ObjectKey(%v) = %q, want %q", c.obj, got, c.want)
		}
	}
}

// TestFactRoundTrip exports facts on one pass and imports them on a
// second pass over a package that sees the first only through its
// objects' keys — the same situation as importing through compiler
// export data.
func TestFactRoundTrip(t *testing.T) {
	pkg, fn, method, _ := fakePkg("example.com/p")
	a := &Analyzer{Name: "det"}
	store := newFactSet()
	exp := &Pass{Analyzer: a, Pkg: pkg, Facts: store}

	if !exp.ExportObjectFact(fn, &testFact{Kind: "maporder", Count: 2}) {
		t.Fatal("ExportObjectFact reported no change on first export")
	}
	if exp.ExportObjectFact(fn, &testFact{Kind: "maporder", Count: 2}) {
		t.Error("re-exporting an identical fact should report no change")
	}
	if !exp.ExportObjectFact(fn, &testFact{Kind: "maporder", Count: 3}) {
		t.Error("exporting a different fact should report a change")
	}
	exp.ExportObjectFact(method, &testFact{Kind: "wallclock"})
	if len(store.m) != 2 {
		t.Fatalf("store has %d facts, want 2", len(store.m))
	}

	// The importing side re-creates the objects (as an export-data
	// importer would) — only the keys must line up.
	pkg2, fn2, method2, _ := fakePkg("example.com/p")
	imp := &Pass{Analyzer: a, Pkg: pkg2, Facts: store}
	var got testFact
	if !imp.ImportObjectFact(fn2, &got) {
		t.Fatal("ImportObjectFact(F) found nothing")
	}
	if got.Kind != "maporder" || got.Count != 3 {
		t.Errorf("F fact = %+v, want {maporder 3}", got)
	}
	if !imp.ImportObjectFact(method2, &got) || got.Kind != "wallclock" {
		t.Errorf("T.M fact = %+v, want Kind=wallclock", got)
	}

	// A different analyzer must not see det's facts.
	other := &Pass{Analyzer: &Analyzer{Name: "other"}, Pkg: pkg2, Facts: store}
	if other.ImportObjectFact(fn2, &got) {
		t.Error("facts leaked across analyzers")
	}
}

func TestExportSkipsNonPackageLevelObjects(t *testing.T) {
	pkg, _, _, _ := fakePkg("example.com/p")
	local := types.NewVar(token.NoPos, pkg, "tmp", types.Typ[types.Int])
	p := &Pass{Analyzer: &Analyzer{Name: "det"}, Pkg: pkg, Facts: newFactSet()}
	if p.ExportObjectFact(local, &testFact{}) {
		t.Error("fact attached to a non-package-level object")
	}
	if len(p.Facts.m) != 0 {
		t.Error("store not empty after dropped export")
	}
}
