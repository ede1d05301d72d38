package analysis

// Facts: cross-package dataflow summaries, mirroring the
// golang.org/x/tools/go/analysis fact model on top of the local
// framework.
//
// A Fact is a serializable statement an analyzer attaches to a
// package-level object (function, method, var, type, const) or to a
// package as a whole while analyzing the package that declares it.
// RunAnalyzers visits packages in dependency order with one FactSet,
// so when it later analyzes a package that imports the declaring one,
// the same analyzer can import the fact and act on it — this is how
// taint discovered inside one package reaches report sites in
// another.
//
// Facts are keyed by stable object keys (see ObjectKey) rather than by
// types.Object identity, because an object seen through compiler
// export data is a distinct types.Object from the one created when its
// declaring package was type-checked from source. The store keeps
// each fact as its encoding/gob bytes: a fact type that does not
// encode fails at its first export, every import decodes a private
// copy, and a summary analyzer's fixpoint detects change by comparing
// those bytes.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
)

// Fact is the marker interface for analyzer facts. Implementations
// must be pointers to gob-encodable structs with exported fields.
type Fact interface {
	// AFact is a no-op marker method.
	AFact()
}

// ObjectKey returns the stable cross-package key for a package-level
// object or method: "pkgpath.Name" for package-level declarations,
// "pkgpath.Type.Method" for methods (pointer receivers are stripped).
// Objects that cannot carry facts (locals, fields, universe names) map
// to "".
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	pkg := obj.Pkg().Path()
	switch o := obj.(type) {
	case *types.Func:
		sig, ok := o.Type().(*types.Signature)
		if !ok {
			return ""
		}
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return pkg + "." + named.Obj().Name() + "." + o.Name()
		}
		return pkg + "." + o.Name()
	case *types.Var, *types.TypeName, *types.Const:
		if obj.Parent() == obj.Pkg().Scope() {
			return pkg + "." + obj.Name()
		}
	}
	return ""
}

// factKey identifies one stored fact.
type factKey struct {
	Analyzer string
	// Object is an ObjectKey, or "pkg:<path>" for package facts.
	Object string
	// Type is the reflected Go type of the fact value.
	Type string
}

// FactSet is the driver's fact store, shared across packages and
// analyzers for one RunAnalyzers call.
type FactSet struct {
	m map[factKey][]byte
}

// newFactSet returns an empty store.
func newFactSet() *FactSet {
	return &FactSet{m: make(map[factKey][]byte)}
}

// put encodes and stores one fact, reporting whether the stored bytes
// changed (used by analyzers running to a fixpoint).
func (s *FactSet) put(analyzer, object string, fact Fact) (changed bool, err error) {
	data, err := encodeFact(fact)
	if err != nil {
		return false, err
	}
	key := factKey{analyzer, object, factType(fact)}
	if prev, ok := s.m[key]; ok && bytes.Equal(prev, data) {
		return false, nil
	}
	s.m[key] = data
	return true, nil
}

// get decodes a stored fact into the given pointer.
func (s *FactSet) get(analyzer, object string, fact Fact) bool {
	data, ok := s.m[factKey{analyzer, object, factType(fact)}]
	if !ok {
		return false
	}
	return decodeFact(data, fact) == nil
}

// factType names the concrete fact type.
func factType(fact Fact) string {
	return reflect.TypeOf(fact).String()
}

// encodeFact gob-encodes the value the fact pointer refers to.
func encodeFact(fact Fact) ([]byte, error) {
	v := reflect.ValueOf(fact)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return nil, fmt.Errorf("fact %T must be a non-nil pointer", fact)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).EncodeValue(v.Elem()); err != nil {
		return nil, fmt.Errorf("fact %T is not gob-encodable: %v", fact, err)
	}
	return buf.Bytes(), nil
}

// decodeFact fills the fact pointer from gob bytes.
func decodeFact(data []byte, fact Fact) error {
	v := reflect.ValueOf(fact)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return fmt.Errorf("fact %T must be a non-nil pointer", fact)
	}
	return gob.NewDecoder(bytes.NewReader(data)).DecodeValue(v.Elem())
}

// ExportObjectFact attaches fact to obj for this pass's analyzer.
// Facts attach only to package-level objects and methods; calls for
// other objects are silently dropped (matching ObjectKey). Reports
// whether the stored fact changed, so summary analyzers can iterate to
// a fixpoint. Panics if the fact does not gob-encode.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) bool {
	key := ObjectKey(obj)
	if key == "" || p.Facts == nil {
		return false
	}
	changed, err := p.Facts.put(p.Analyzer.Name, key, fact)
	if err != nil {
		panic(fmt.Sprintf("analysis: %s: %v", p.Analyzer.Name, err))
	}
	return changed
}

// ImportObjectFact fills fact with the stored fact for obj, which may
// have been exported while analyzing this package or any package this
// one imports (directly or transitively).
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	key := ObjectKey(obj)
	if key == "" || p.Facts == nil {
		return false
	}
	return p.Facts.get(p.Analyzer.Name, key, fact)
}

// ExportPackageFact attaches fact to the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) bool {
	if p.Facts == nil || p.Pkg == nil {
		return false
	}
	changed, err := p.Facts.put(p.Analyzer.Name, "pkg:"+p.Pkg.Path(), fact)
	if err != nil {
		panic(fmt.Sprintf("analysis: %s: %v", p.Analyzer.Name, err))
	}
	return changed
}

// ImportPackageFact fills fact with the package fact stored for the
// package with the given import path.
func (p *Pass) ImportPackageFact(path string, fact Fact) bool {
	if p.Facts == nil {
		return false
	}
	return p.Facts.get(p.Analyzer.Name, "pkg:"+path, fact)
}
