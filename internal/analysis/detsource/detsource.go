// Package detsource is a dataflow taint analyzer for nondeterminism
// sources. The repo's correctness story rests on byte-determinism —
// identical inputs must produce identical placements, traces, and
// reports — so values whose identity or order depends on a
// nondeterministic source must never reach a determinism-sensitive
// output.
//
// Sources (the taint lattice's non-bottom elements):
//
//   - map iteration order: slices built by appending inside a range
//     over a map (or over an already-tainted slice) carry their
//     elements in randomized order;
//   - the wall clock: time.Now / time.Since and arithmetic on their
//     results;
//   - global math/rand: package-level math/rand functions draw from a
//     process-global, randomly-seeded source (methods on an explicit
//     seeded *rand.Rand are deterministic and not flagged);
//   - select arbitration: a variable assigned in two or more comm
//     clauses of one select takes whichever case the runtime picks.
//
// Sinks:
//
//   - returns of exported functions/methods (map-order, rand, and
//     select taint report here; wall-clock values legitimately cross
//     API boundaries, so they only export a fact);
//   - stores into serialized struct fields — fields carrying a json
//     tag end up in placements, traces, or BENCH reports. The
//     Event.TimeMS normalization point is the one sanctioned
//     wall-clock store (determinism comparisons exclude it).
//
// Sanitizers clear taint: the reordering calls sort.Sort, sort.Stable,
// sort.Slice, sort.SliceStable, sort.Strings, sort.Ints, sort.Float64s
// and slices.Sort* over a map-derived slice (the sorted-keys idiom's
// second half; other sort and slices calls leave the order as it
// was), and any function whose doc comment carries a
// //lint:detsource-sanitizer directive (a canonical-ordering helper);
// its slice arguments and results are considered order-clean.
//
// Taint crosses package boundaries through ReturnsTaint facts: when an
// analyzed function returns a tainted value, callers in importing
// packages taint the call's results, so taint originating in one
// package reports at a sink in another.
//
// Justified findings (e.g. a benchmark result struct that records wall
// time by design) are annotated //lint:detsource <reason>.
package detsource

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"

	"rulefit/internal/analysis"
)

// Taint kinds, phrased for diagnostics.
const (
	kindMapOrder  = "map iteration order"
	kindWallClock = "the wall clock"
	kindRand      = "global math/rand"
	kindSelect    = "select arbitration"
)

// ReturnsTaint is the exported fact: calling this function yields a
// value derived from the listed nondeterminism sources.
type ReturnsTaint struct {
	Kinds []string // sorted
}

// AFact marks ReturnsTaint as a fact.
func (*ReturnsTaint) AFact() {}

// Sanitizer marks a function annotated //lint:detsource-sanitizer: its
// slice arguments and results are considered order-clean.
type Sanitizer struct{}

// AFact marks Sanitizer as a fact.
func (*Sanitizer) AFact() {}

// Analyzer is the detsource analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "detsource",
	Doc:       "taints values derived from nondeterminism sources (map order, wall clock, global rand, select races) and reports taint reaching exported returns or serialized fields",
	FactTypes: []analysis.Fact{(*ReturnsTaint)(nil), (*Sanitizer)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) error {
	var fns []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fns = append(fns, fd)
				if hasSanitizerDirective(fd) {
					if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
						pass.ExportObjectFact(obj, &Sanitizer{})
					}
				}
			}
		}
	}

	// Summaries first, to a fixpoint: a function's return taint may
	// come from a callee later in the file (or in this package's
	// dependency cycle of helpers), so iterate until no fact changes.
	for iter := 0; iter < 10; iter++ {
		changed := false
		for _, fd := range fns {
			kinds := analyzeFunc(pass, fd, false)
			if len(kinds) == 0 {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			if pass.ExportObjectFact(obj, &ReturnsTaint{Kinds: kinds}) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Report pass, with all summaries in place.
	for _, fd := range fns {
		analyzeFunc(pass, fd, true)
	}
	return nil
}

// hasSanitizerDirective reports a //lint:detsource-sanitizer doc line.
func hasSanitizerDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, "//lint:detsource-sanitizer") {
			return true
		}
	}
	return false
}

// taintVal is one variable's taint state.
type taintVal struct {
	kind string
}

// walker carries one function's abstract interpretation: a
// flow-sensitive taint map over local objects, walked in source order
// with strong updates (assigning a clean value clears taint) and
// sanitizer kills.
type walker struct {
	pass   *analysis.Pass
	fd     *ast.FuncDecl
	report bool
	taint  map[types.Object]taintVal
	// rangeKeys has one entry per enclosing nondeterministic-order
	// loop (range over a map or over a map-order-tainted slice); the
	// value is the loop's key object, for the keyed-slot exemption.
	rangeKeys []types.Object
	// litDepth tracks enclosing function literals: returns inside a
	// closure are not the outer function's returns.
	litDepth int
	retKinds map[string]bool
}

// analyzeFunc interprets one function and returns the sorted taint
// kinds its returns can carry. With report set, sink violations are
// reported through the pass.
func analyzeFunc(pass *analysis.Pass, fd *ast.FuncDecl, report bool) []string {
	w := &walker{
		pass:     pass,
		fd:       fd,
		report:   report,
		taint:    make(map[types.Object]taintVal),
		retKinds: make(map[string]bool),
	}
	w.stmt(fd.Body)
	kinds := make([]string, 0, len(w.retKinds))
	for k := range w.retKinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// obj resolves an ident to its object (definition or use).
func (w *walker) obj(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := w.pass.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return w.pass.TypesInfo.Uses[id]
}

// rootObj digs through wrappers to the object an expression is rooted
// at (for taint assignment and sanitizer kills).
func (w *walker) rootObj(e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.Ident:
		return w.obj(x)
	case *ast.ParenExpr:
		return w.rootObj(x.X)
	case *ast.IndexExpr:
		return w.rootObj(x.X)
	case *ast.SliceExpr:
		return w.rootObj(x.X)
	case *ast.StarExpr:
		return w.rootObj(x.X)
	case *ast.UnaryExpr:
		return w.rootObj(x.X)
	case *ast.CallExpr:
		// Through a type conversion: T(x).
		if len(x.Args) == 1 {
			if tv, ok := w.pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() {
				return w.rootObj(x.Args[0])
			}
		}
	}
	return nil
}

// ---- statements ----

func (w *walker) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, inner := range st.List {
			w.stmt(inner)
		}
	case *ast.AssignStmt:
		w.assign(st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var kind string
					if len(vs.Values) == len(vs.Names) {
						kind = w.expr(vs.Values[i])
					} else if len(vs.Values) == 1 {
						kind = w.expr(vs.Values[0])
					}
					w.setTaint(w.obj(name), kind)
				}
			}
		}
	case *ast.ExprStmt:
		w.expr(st.X)
	case *ast.IfStmt:
		w.stmt(st.Init)
		w.expr(st.Cond)
		w.stmt(st.Body)
		w.stmt(st.Else)
	case *ast.ForStmt:
		w.stmt(st.Init)
		if st.Cond != nil {
			w.expr(st.Cond)
		}
		w.stmt(st.Post)
		w.stmt(st.Body)
	case *ast.RangeStmt:
		w.rangeStmt(st)
	case *ast.SwitchStmt:
		w.stmt(st.Init)
		if st.Tag != nil {
			w.expr(st.Tag)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.expr(e)
			}
			for _, inner := range cc.Body {
				w.stmt(inner)
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init)
		w.stmt(st.Assign)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, inner := range cc.Body {
				w.stmt(inner)
			}
		}
	case *ast.SelectStmt:
		w.selectStmt(st)
	case *ast.ReturnStmt:
		for _, res := range st.Results {
			kind := w.expr(res)
			if kind == "" || w.litDepth > 0 {
				continue
			}
			w.retKinds[kind] = true
			if w.report && w.fd.Name.IsExported() && kind != kindWallClock {
				w.pass.Reportf(res.Pos(),
					"exported %s returns a value derived from %s; sort/canonicalize before returning, or annotate //lint:detsource with a reason",
					w.fd.Name.Name, kind)
			}
		}
	case *ast.GoStmt:
		w.expr(st.Call)
	case *ast.DeferStmt:
		w.expr(st.Call)
	case *ast.SendStmt:
		w.expr(st.Chan)
		w.expr(st.Value)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
	case *ast.IncDecStmt:
		w.expr(st.X)
	}
}

// assign handles one assignment: taint flows right to left, with
// strong updates, the map-range append rule, and field-store sinks.
func (w *walker) assign(st *ast.AssignStmt) {
	// Multi-value form: x, y := f().
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		kind := w.expr(st.Rhs[0])
		for _, lhs := range st.Lhs {
			w.assignOne(lhs, st.Rhs[0], kind)
		}
		return
	}
	for i, lhs := range st.Lhs {
		if i >= len(st.Rhs) {
			break
		}
		rhs := st.Rhs[i]
		kind := w.expr(rhs)
		// Appending inside a map-ordered loop builds a slice whose
		// element order inherits the iteration order — unless the
		// destination is a per-key slot (m2[k] = append(m2[k], ...)),
		// whose contents come from a single iteration.
		if kind == "" && w.inMapRange() && isAppend(w.pass, rhs) && !w.keyedSlot(lhs) {
			kind = kindMapOrder
		}
		w.assignOne(lhs, rhs, kind)
	}
}

func (w *walker) assignOne(lhs, rhs ast.Expr, kind string) {
	switch l := lhs.(type) {
	case *ast.Ident:
		w.setTaint(w.obj(l), kind)
	case *ast.IndexExpr:
		w.expr(l.Index)
		if kind != "" {
			// Writing a tainted element taints the container.
			if obj := w.rootObj(l.X); obj != nil {
				w.taint[obj] = taintVal{kind}
			}
		}
	case *ast.SelectorExpr:
		w.expr(l.X)
		if kind != "" {
			if tv, ok := w.pass.TypesInfo.Types[l.X]; ok {
				w.checkFieldStore(tv.Type, l.Sel.Name, kind, rhs.Pos())
			}
		}
	case *ast.StarExpr:
		w.expr(l.X)
	}
}

func (w *walker) setTaint(obj types.Object, kind string) {
	if obj == nil {
		return
	}
	if kind == "" {
		delete(w.taint, obj)
		return
	}
	w.taint[obj] = taintVal{kind}
}

func (w *walker) inMapRange() bool { return len(w.rangeKeys) > 0 }

// keyedSlot reports whether lhs is an index expression keyed by the
// innermost nondeterministic loop's own key variable.
func (w *walker) keyedSlot(lhs ast.Expr) bool {
	idx, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	key := w.rangeKeys[len(w.rangeKeys)-1]
	return key != nil && w.rootObj(idx.Index) == key
}

func (w *walker) rangeStmt(st *ast.RangeStmt) {
	overKind := w.expr(st.X)
	_, isMap := typeOf(w.pass, st.X).Underlying().(*types.Map)
	nondet := isMap || overKind == kindMapOrder
	if nondet {
		w.rangeKeys = append(w.rangeKeys, w.obj(st.Key))
	}
	// Ranging a tainted (non-order) value taints the element vars.
	if overKind != "" && overKind != kindMapOrder {
		w.setTaint(w.obj(st.Key), overKind)
		w.setTaint(w.obj(st.Value), overKind)
	}
	w.stmt(st.Body)
	if nondet {
		w.rangeKeys = w.rangeKeys[:len(w.rangeKeys)-1]
	}
}

// selectStmt taints variables assigned in two or more comm clauses:
// which clause executes is scheduler arbitration.
func (w *walker) selectStmt(st *ast.SelectStmt) {
	counts := make(map[types.Object]int)
	for _, c := range st.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if as, ok := cc.Comm.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if obj := w.obj(lhs); obj != nil {
					counts[obj]++
				}
			}
		}
	}
	// Walk the comm statements first (their strong updates would
	// otherwise clear the arbitration taint applied below), then taint,
	// then walk the bodies.
	for _, c := range st.Body.List {
		if cc, ok := c.(*ast.CommClause); ok {
			w.stmt(cc.Comm)
		}
	}
	for obj, n := range counts {
		if n >= 2 {
			w.taint[obj] = taintVal{kindSelect}
		}
	}
	for _, c := range st.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		for _, inner := range cc.Body {
			w.stmt(inner)
		}
	}
}

// ---- expressions ----

// expr computes an expression's taint kind ("" for clean), walking
// nested expressions for composite-literal sinks along the way.
func (w *walker) expr(e ast.Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *ast.Ident:
		if t, ok := w.taint[w.obj(x)]; ok {
			return t.kind
		}
		return ""
	case *ast.ParenExpr:
		return w.expr(x.X)
	case *ast.UnaryExpr:
		return w.expr(x.X)
	case *ast.StarExpr:
		return w.expr(x.X)
	case *ast.BinaryExpr:
		lk := w.expr(x.X)
		rk := w.expr(x.Y)
		// Comparisons yield order-free booleans; deadline checks and
		// bound tests are sanctioned control flow (StopReason records
		// limit-dependent stops explicitly).
		switch x.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			return ""
		}
		if lk != "" {
			return lk
		}
		return rk
	case *ast.IndexExpr:
		w.expr(x.Index)
		return w.expr(x.X)
	case *ast.SliceExpr:
		return w.expr(x.X)
	case *ast.SelectorExpr:
		// Field reads are not tracked (taint dies at struct
		// boundaries except for the serialized-field sinks).
		w.expr(x.X)
		return ""
	case *ast.CallExpr:
		return w.call(x)
	case *ast.CompositeLit:
		return w.compositeLit(x)
	case *ast.KeyValueExpr:
		return w.expr(x.Value)
	case *ast.TypeAssertExpr:
		return w.expr(x.X)
	case *ast.FuncLit:
		w.litDepth++
		w.stmt(x.Body)
		w.litDepth--
		return ""
	}
	return ""
}

// call computes a call's result taint: sources, sanitizers, summaries
// (facts), conversions, and method calls on tainted receivers.
func (w *walker) call(call *ast.CallExpr) string {
	// Type conversion: taint passes through.
	if tv, ok := w.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return w.expr(call.Args[0])
	}

	// Walk arguments (composite-literal sinks live here too), joining
	// their taint for the builtin/propagation cases.
	argKind := ""
	for _, arg := range call.Args {
		if k := w.expr(arg); k != "" && argKind == "" {
			argKind = k
		}
	}

	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		if obj := w.pass.TypesInfo.Uses[f]; obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
				switch f.Name {
				case "append", "min", "max":
					return argKind
				default:
					return ""
				}
			}
			return w.funcTaint(obj, call, argKind)
		}
	case *ast.SelectorExpr:
		if pkgPath, ok := qualifiedPkg(w.pass, f); ok {
			switch {
			case pkgPath == "time" && (f.Sel.Name == "Now" || f.Sel.Name == "Since"):
				return kindWallClock
			case pkgPath == "math/rand" || pkgPath == "math/rand/v2":
				// Constructors (New, NewSource, NewPCG, ...) build
				// explicitly-seeded deterministic generators; only the
				// process-global draws are nondeterministic.
				if strings.HasPrefix(f.Sel.Name, "New") {
					return ""
				}
				return kindRand
			case pkgPath == "sort" && sortFuncs[f.Sel.Name],
				pkgPath == "slices" && strings.HasPrefix(f.Sel.Name, "Sort"):
				w.sanitizeArgs(call)
				return ""
			}
			if obj := w.pass.TypesInfo.Uses[f.Sel]; obj != nil {
				return w.funcTaint(obj, call, argKind)
			}
			return ""
		}
		// Method call: summaries first, then receiver taint (covers
		// t.Sub(u), d.Microseconds(), ... on tainted values).
		recvKind := w.expr(f.X)
		if obj := w.pass.TypesInfo.Uses[f.Sel]; obj != nil {
			if k := w.funcTaint(obj, call, argKind); k != "" {
				return k
			}
		}
		return recvKind
	}
	return ""
}

// funcTaint consults facts for a callee: sanitizers clear their
// arguments' order taint; ReturnsTaint summaries taint the result.
func (w *walker) funcTaint(obj types.Object, call *ast.CallExpr, argKind string) string {
	var san Sanitizer
	if w.pass.ImportObjectFact(obj, &san) {
		w.sanitizeArgs(call)
		return ""
	}
	var rt ReturnsTaint
	if w.pass.ImportObjectFact(obj, &rt) && len(rt.Kinds) > 0 {
		return rt.Kinds[0]
	}
	return ""
}

// sortFuncs are the sort package's reordering functions. With
// slices.Sort* they are the built-in sanitizers: searching, reversing
// or reading a map-ordered slice leaves its order as it was.
var sortFuncs = map[string]bool{
	"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
	"Strings": true, "Ints": true, "Float64s": true,
}

// sanitizeArgs clears map-order taint from a sanitizer call's slice
// arguments (sort.Slice(keys, ...) makes keys order-clean).
func (w *walker) sanitizeArgs(call *ast.CallExpr) {
	for _, arg := range call.Args {
		obj := w.rootObj(arg)
		if obj == nil {
			continue
		}
		if t, ok := w.taint[obj]; ok && t.kind == kindMapOrder {
			delete(w.taint, obj)
		}
	}
}

// compositeLit joins element taint and checks serialized-field sinks.
// Struct literals absorb taint (the serialized-field sinks are the
// checks at struct boundaries; fields are not tracked as values), so
// only slice/array/map literals propagate their elements' taint.
func (w *walker) compositeLit(lit *ast.CompositeLit) string {
	join := ""
	t := typeOf(w.pass, lit)
	_, isStruct := structUnder(t)
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			kind := w.expr(kv.Value)
			if kind != "" {
				if join == "" {
					join = kind
				}
				if name, ok := kv.Key.(*ast.Ident); ok {
					w.checkFieldStore(t, name.Name, kind, kv.Value.Pos())
				}
			}
			continue
		}
		kind := w.expr(elt)
		if kind != "" {
			if join == "" {
				join = kind
			}
			if st, ok := structUnder(t); ok && i < st.NumFields() {
				w.checkFieldStore(t, st.Field(i).Name(), kind, elt.Pos())
			}
		}
	}
	if isStruct {
		return ""
	}
	return join
}

// checkFieldStore reports a tainted store into a serialized (json-
// tagged) struct field. Event.TimeMS — the documented normalization
// point, zeroed by Normalize before determinism comparisons — is the
// one sanctioned wall-clock store.
func (w *walker) checkFieldStore(structType types.Type, fieldName, kind string, pos token.Pos) {
	st, ok := structUnder(structType)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != fieldName {
			continue
		}
		tag := reflect.StructTag(st.Tag(i)).Get("json")
		if tag == "" || tag == "-" {
			return // not serialized
		}
		if fieldName == "TimeMS" && kind == kindWallClock {
			return // sanctioned normalization point
		}
		if w.report {
			w.pass.Reportf(pos,
				"value derived from %s stored in serialized field %s.%s; route it through a sanctioned normalization point, or annotate //lint:detsource with a reason",
				kind, typeName(structType), fieldName)
		}
		return
	}
}

// ---- type helpers ----

func typeOf(pass *analysis.Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

// structUnder unwraps pointers and names down to a struct type.
func structUnder(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// qualifiedPkg resolves sel's base to an imported package path.
func qualifiedPkg(pass *analysis.Pass, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

// isAppend reports whether e is a builtin append call.
func isAppend(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "append"
}
