// Package sinkguard enforces the nil-sink / nil-span fast-path
// contract: observability is optional, so hot paths must stay free of
// both nil-dereference panics and needless work when no sink is
// attached.
//
// Two doc-comment directives declare the contract at its source:
//
//	//lint:sinkguard-iface — on an interface type: values of this type
//	may be nil, so method calls on them must be dominated by a nil
//	check (`if s != nil { s.Event(e) }` or an `if s == nil { return }`
//	early-out).
//
//	//lint:nilsafe — on a concrete type: every exported pointer-receiver
//	method begins with a nil-receiver guard, so calls need no nil check.
//	The analyzer verifies the promise on each such method.
//
// Forwarders are first-class: a function whose body calls a guarded
// interface method on one of its own parameters or receiver fields
// without a check is not reported — instead it exports a RequiresGuard
// fact, and every call TO it must supply the missing guard (this is how
// the solver's `emit` helper stays guard-free while `if b.sink != nil {
// b.emit(...) }` call sites carry the check). Unexported functions get
// forwarder status implicitly; an exported function is API surface and
// must either guard or declare the contract with a
//
//	//lint:sinkguard-forwarder <who guards>
//
// doc directive. Facts travel across package boundaries, so a declared
// forwarder in one package constrains callers in another.
//
// Calls to nil-safe methods are exempt from guards but subject to the
// cheap-arguments rule: an argument that itself performs a call (e.g.
// fmt.Sprintf) runs even when the receiver is nil, defeating the
// zero-overhead fast path, and is reported unless the call is guarded.
//
// Deliberate exceptions are annotated
//
//	//lint:sinkguard <why nil is impossible here>
package sinkguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"rulefit/internal/analysis"
)

// GuardedIface marks an interface type whose values require nil guards
// before method calls (declared with //lint:sinkguard-iface).
type GuardedIface struct{}

// AFact marks GuardedIface as a fact.
func (*GuardedIface) AFact() {}

// NilSafe marks a concrete type whose exported pointer-receiver methods
// all begin with nil-receiver guards (declared with //lint:nilsafe).
type NilSafe struct{}

// AFact marks NilSafe as a fact.
func (*NilSafe) AFact() {}

// RequiresGuard marks a function or method that forwards to a guarded
// interface value it does not nil-check itself; callers must guard.
// Param >= 0 with empty Field: the value is the Param-th parameter.
// Param == -1 with Field set: the value is <receiver>.<Field>.
// Param >= 0 with Field set: the value is <param>.<Field>.
type RequiresGuard struct {
	Param int
	Field string
}

// AFact marks RequiresGuard as a fact.
func (*RequiresGuard) AFact() {}

// Analyzer is the sinkguard analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "sinkguard",
	Doc:  "enforces nil guards on optional-sink interface calls, forwarder contracts, and nil-safe method promises",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	exportTypeDirectives(pass)
	checkNilSafePromises(pass)
	// Forwarder facts can chain within the package (a wraps b wraps the
	// sink call), so run the body check to a fixpoint before reporting.
	for i := 0; i < 10; i++ {
		changed := false
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if checkFunc(pass, fd, false) {
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd, true)
			}
		}
	}
	return nil
}

// exportTypeDirectives turns //lint:sinkguard-iface and //lint:nilsafe
// type-doc directives into facts on the type objects.
func exportTypeDirectives(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				obj := pass.TypesInfo.Defs[ts.Name]
				if obj == nil {
					continue
				}
				if hasDirective(doc, "sinkguard-iface") {
					pass.ExportObjectFact(obj, &GuardedIface{})
				}
				if hasDirective(doc, "nilsafe") {
					pass.ExportObjectFact(obj, &NilSafe{})
				}
			}
		}
	}
}

// hasDirective reports whether a doc comment contains //lint:<name>.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//lint:")
		if text == c.Text {
			continue
		}
		word := text
		if i := strings.IndexAny(text, " \t"); i >= 0 {
			word = text[:i]
		}
		if word == name {
			return true
		}
	}
	return false
}

// checkNilSafePromises verifies that every exported pointer-receiver
// method of a //lint:nilsafe type begins with a nil-receiver guard.
func checkNilSafePromises(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			named, ptr := recvNamed(pass, fd)
			if named == nil || !ptr {
				continue
			}
			if !typeIs(pass, named.Obj(), (*NilSafe)(nil)) {
				continue
			}
			if !startsWithNilGuard(pass, fd) {
				pass.Reportf(fd.Pos(), "method %s.%s is declared nil-safe (//lint:nilsafe on the type) but does not begin with a nil-receiver guard", named.Obj().Name(), fd.Name.Name)
			}
		}
	}
}

// recvNamed resolves a method's receiver base type, reporting whether
// the receiver is a pointer.
func recvNamed(pass *analysis.Pass, fd *ast.FuncDecl) (*types.Named, bool) {
	if len(fd.Recv.List) != 1 {
		return nil, false
	}
	tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil, false
	}
	t := tv.Type
	ptr := false
	if p, isPtr := t.(*types.Pointer); isPtr {
		t, ptr = p.Elem(), true
	}
	named, _ := t.(*types.Named)
	return named, ptr
}

// startsWithNilGuard reports whether the method body's first statement
// is `if <recv> == nil { ... }`.
func startsWithNilGuard(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	names := fd.Recv.List[0].Names
	if len(names) != 1 || names[0].Name == "_" {
		return false
	}
	if len(fd.Body.List) == 0 {
		return false
	}
	ifs, ok := fd.Body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return false
	}
	bin, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.EQL {
		return false
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	return (isIdentNamed(x, names[0].Name) && isNil(y)) || (isIdentNamed(y, names[0].Name) && isNil(x))
}

func isIdentNamed(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// typeIs reports whether the fact of the given type is attached to obj.
func typeIs(pass *analysis.Pass, obj types.Object, proto analysis.Fact) bool {
	switch proto.(type) {
	case *GuardedIface:
		return pass.ImportObjectFact(obj, &GuardedIface{})
	case *NilSafe:
		return pass.ImportObjectFact(obj, &NilSafe{})
	}
	return false
}

// funcScope carries one function's guard state during checking.
type funcScope struct {
	pass    *analysis.Pass
	fd      *ast.FuncDecl
	recv    string             // receiver name, or ""
	params  map[string]int     // parameter name -> index
	guarded map[string][]gspan // ExprString -> non-nil-known intervals
	// mayForward: unexported, or declared //lint:sinkguard-forwarder —
	// unguarded forwarding exports a fact instead of reporting.
	mayForward bool
}

type gspan struct{ start, end token.Pos }

// checkFunc checks one function, exporting forwarder facts; when report
// is true, violations are reported. Returns whether any fact changed.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, report bool) bool {
	fs := &funcScope{
		pass:       pass,
		fd:         fd,
		params:     make(map[string]int),
		guarded:    make(map[string][]gspan),
		mayForward: !fd.Name.IsExported() || hasDirective(fd.Doc, "sinkguard-forwarder"),
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		fs.recv = fd.Recv.List[0].Names[0].Name
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			fs.params[name.Name] = i
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	fs.collectGuards()
	changed := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fs.checkCall(call, report) {
			changed = true
		}
		return true
	})
	return changed
}

// collectGuards records the source intervals within which an expression
// is known non-nil: the body of `if expr != nil && ...`, and everything
// after an `if expr == nil { return }` early-out.
func (fs *funcScope) collectGuards() {
	ast.Inspect(fs.fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		for _, c := range conjuncts(ifs.Cond) {
			bin, ok := c.(*ast.BinaryExpr)
			if !ok {
				continue
			}
			var other ast.Expr
			switch {
			case isNil(ast.Unparen(bin.X)):
				other = ast.Unparen(bin.Y)
			case isNil(ast.Unparen(bin.Y)):
				other = ast.Unparen(bin.X)
			default:
				continue
			}
			s := types.ExprString(other)
			switch bin.Op {
			case token.NEQ:
				fs.guarded[s] = append(fs.guarded[s], gspan{ifs.Body.Pos(), ifs.Body.End()})
			case token.EQL:
				if ifs.Else == nil && endsInExit(ifs.Body) {
					fs.guarded[s] = append(fs.guarded[s], gspan{ifs.End(), fs.fd.Body.End()})
				}
			}
		}
		return true
	})
}

// conjuncts flattens a && tree into its leaves.
func conjuncts(e ast.Expr) []ast.Expr {
	e = ast.Unparen(e)
	if bin, ok := e.(*ast.BinaryExpr); ok && bin.Op == token.LAND {
		return append(conjuncts(bin.X), conjuncts(bin.Y)...)
	}
	return []ast.Expr{e}
}

// endsInExit reports whether a block's last statement leaves the
// function or loop (return/panic/continue/break).
func endsInExit(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// isGuarded reports whether pos falls inside a non-nil-known interval
// for the expression string s.
func (fs *funcScope) isGuarded(s string, pos token.Pos) bool {
	for _, g := range fs.guarded[s] {
		if pos >= g.start && pos < g.end {
			return true
		}
	}
	return false
}

// checkCall handles one call expression; returns whether a fact changed.
func (fs *funcScope) checkCall(call *ast.CallExpr, report bool) bool {
	pass := fs.pass
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if named := namedOf(pass, sel.X); named != nil {
			if typeIs(pass, named.Obj(), (*GuardedIface)(nil)) {
				return fs.checkIfaceCall(call, sel, report)
			}
			if typeIs(pass, named.Obj(), (*NilSafe)(nil)) {
				fs.checkCheapArgs(call, sel, named, report)
				return false
			}
		}
	}
	// Calls to known forwarders must supply the guard the callee omits.
	callee := calleeObj(pass, call)
	if callee == nil {
		return false
	}
	var rg RequiresGuard
	if !pass.ImportObjectFact(callee, &rg) {
		return false
	}
	return fs.checkForwarderCall(call, callee, &rg, report)
}

// namedOf resolves an expression's type to its named type (pointers
// stripped), else nil.
func namedOf(pass *analysis.Pass, e ast.Expr) *types.Named {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// calleeObj resolves the called function or method object.
func calleeObj(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// checkIfaceCall handles a method call on a guarded-interface value.
func (fs *funcScope) checkIfaceCall(call *ast.CallExpr, sel *ast.SelectorExpr, report bool) bool {
	s := types.ExprString(ast.Unparen(sel.X))
	if fs.isGuarded(s, call.Pos()) {
		return false
	}
	// Forwarder shapes: the possibly-nil value is owned by our caller.
	if rg, ok := fs.forwarderShape(ast.Unparen(sel.X)); ok && fs.mayForward {
		return fs.exportGuard(rg)
	}
	if report {
		fs.pass.Reportf(call.Pos(), "call to %s.%s without a nil check on %s; guard with `if %s != nil` or annotate //lint:sinkguard with why nil is impossible", s, sel.Sel.Name, s, s)
	}
	return false
}

// forwarderShape maps the guarded value's expression to a RequiresGuard
// fact when it is a parameter, a receiver field, or a parameter field.
func (fs *funcScope) forwarderShape(e ast.Expr) (RequiresGuard, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		if i, ok := fs.params[x.Name]; ok {
			return RequiresGuard{Param: i}, true
		}
	case *ast.SelectorExpr:
		base, ok := ast.Unparen(x.X).(*ast.Ident)
		if !ok {
			return RequiresGuard{}, false
		}
		if fs.recv != "" && base.Name == fs.recv {
			return RequiresGuard{Param: -1, Field: x.Sel.Name}, true
		}
		if i, ok := fs.params[base.Name]; ok {
			return RequiresGuard{Param: i, Field: x.Sel.Name}, true
		}
	}
	return RequiresGuard{}, false
}

// exportGuard attaches a RequiresGuard fact to the current function.
func (fs *funcScope) exportGuard(rg RequiresGuard) bool {
	obj := fs.pass.TypesInfo.Defs[fs.fd.Name]
	if obj == nil {
		return false
	}
	return fs.pass.ExportObjectFact(obj, &rg)
}

// checkForwarderCall verifies that a call to a RequiresGuard function is
// itself guarded, or propagates the obligation outward.
func (fs *funcScope) checkForwarderCall(call *ast.CallExpr, callee types.Object, rg *RequiresGuard, report bool) bool {
	// Reconstruct the expression the callee needs non-nil, in caller
	// terms.
	var valueExpr ast.Expr
	var guardStr string
	switch {
	case rg.Param == -1:
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		valueExpr = ast.Unparen(sel.X)
		guardStr = types.ExprString(valueExpr) + "." + rg.Field
	default:
		if rg.Param >= len(call.Args) {
			return false
		}
		valueExpr = ast.Unparen(call.Args[rg.Param])
		guardStr = types.ExprString(valueExpr)
		if rg.Field != "" {
			guardStr += "." + rg.Field
		}
	}
	if fs.isGuarded(guardStr, call.Pos()) {
		return false
	}
	// Propagate when the needed value is in turn owned by our caller:
	// recv.field stays a field obligation, a forwarded parameter maps to
	// our parameter index.
	if inner, ok := fs.propagatedShape(valueExpr, rg); ok && fs.mayForward {
		return fs.exportGuard(inner)
	}
	if report {
		fs.pass.Reportf(call.Pos(), "call to %s requires `%s != nil` (it forwards to a guarded sink unchecked); add the guard or annotate //lint:sinkguard", callee.Name(), guardStr)
	}
	return false
}

// propagatedShape rewrites a callee guard obligation into one on the
// current function, when the value expression permits it.
func (fs *funcScope) propagatedShape(valueExpr ast.Expr, rg *RequiresGuard) (RequiresGuard, bool) {
	if rg.Field != "" {
		// Obligation is <value>.<Field>: valueExpr must be our receiver
		// or a parameter for the composite to stay expressible.
		if id, ok := valueExpr.(*ast.Ident); ok {
			if fs.recv != "" && id.Name == fs.recv {
				return RequiresGuard{Param: -1, Field: rg.Field}, true
			}
			if i, ok := fs.params[id.Name]; ok {
				return RequiresGuard{Param: i, Field: rg.Field}, true
			}
		}
		return RequiresGuard{}, false
	}
	// Obligation is the value itself: any forwarder shape works.
	return fs.forwarderShape(valueExpr)
}

// checkCheapArgs enforces the zero-overhead fast path on nil-safe
// method calls: argument expressions must not perform calls of their
// own unless the call site is nil-guarded.
func (fs *funcScope) checkCheapArgs(call *ast.CallExpr, sel *ast.SelectorExpr, named *types.Named, report bool) {
	if !report {
		return
	}
	s := types.ExprString(ast.Unparen(sel.X))
	if fs.isGuarded(s, call.Pos()) {
		return
	}
	for _, arg := range call.Args {
		if expensive(fs.pass, arg) {
			fs.pass.Reportf(call.Pos(), "argument to nil-safe method %s.%s performs a call that runs even when %s is nil; evaluate it behind `if %s != nil`", named.Obj().Name(), sel.Sel.Name, s, s)
			return
		}
	}
}

// expensive reports whether evaluating e performs a non-trivial call
// (anything beyond type conversions and len/cap).
func expensive(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, isConv := pass.TypesInfo.Types[call.Fun]; isConv && tv.IsType() {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
			if pass.TypesInfo.Uses[id] == types.Universe.Lookup(id.Name) {
				return true
			}
		}
		found = true
		return false
	})
	return found
}
