package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MaporderAnalyzer flags `range` loops over maps whose body accumulates into
// an ordering-sensitive sink — appending to a slice, writing to a
// builder/hash, or concatenating a string — declared outside the loop. Map
// iteration order is randomized per run, so such loops silently produce
// different target hashes or plan orders on identical input, which is
// exactly the nondeterminism that breaks Algorithm 1 hash comparison and the
// planner's P_needed tie-breaks.
//
// An append hidden one call away counts too: calling, inside the loop, a
// function or method of the same package whose body appends to a field of its
// receiver or to a package-level slice (`e.pushWork(k)`) accumulates in map
// order just as a literal append does. Only the callee's own body is
// inspected — one call level.
//
// Loops whose appended slice is passed to a sort call (sort.Strings,
// sort.Slice, a local sortX helper, ...) later in the same function are
// allowed: collect-then-sort is the standard deterministic idiom. Writing
// into another map or a set is also allowed — those sinks are
// order-insensitive.
var MaporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "flag map-range loops that accumulate into order-sensitive sinks without sorting",
	Run:  runMaporder,
}

var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

func runMaporder(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Syntax {
		eachFunc(file, func(body *ast.BlockStmt) {
			inspectShallow(body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := info.TypeOf(rng.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRange(pass, body, rng)
				return true
			})
		})
	}
}

// checkMapRange inspects one map-range loop for order-sensitive sinks.
func checkMapRange(pass *Pass, enclosing *ast.BlockStmt, rng *ast.RangeStmt) {
	info := pass.Pkg.Info
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			// s += expr string concatenation into an outer variable.
			if stmt.Tok.String() == "+=" && len(stmt.Lhs) == 1 {
				ident, ok := stmt.Lhs[0].(*ast.Ident)
				if !ok || declaredWithin(info, ident, rng) {
					return true
				}
				t := info.TypeOf(ident)
				if t == nil {
					return true
				}
				if bt, ok := t.Underlying().(*types.Basic); ok && bt.Info()&types.IsString != 0 {
					pass.Reportf(stmt.Pos(),
						"map iteration order is random; string concatenation into %q is order-sensitive — sort the keys first", ident.Name)
				}
			}
		case *ast.CallExpr:
			// append(outer, ...) without a later sort of outer.
			if fun, ok := stmt.Fun.(*ast.Ident); ok && fun.Name == "append" && len(stmt.Args) > 0 {
				if target, ok := stmt.Args[0].(*ast.Ident); ok && !declaredWithin(info, target, rng) {
					if obj := info.Uses[target]; obj == nil || !sortedAfter(info, enclosing, rng, obj) {
						pass.Reportf(stmt.Pos(),
							"map iteration order is random; append into %q is order-sensitive — sort the keys first or sort %q afterwards", target.Name, target.Name)
					}
				}
				return true
			}
			// builder/hash writes: sb.WriteString(...), h.Write(...).
			if _, name, ok := methodCallOn(info, stmt); ok && writeMethods[name] {
				if sel, ok := stmt.Fun.(*ast.SelectorExpr); ok {
					if root := rootIdent(sel.X); root != nil && !declaredWithin(info, root, rng) {
						pass.Reportf(stmt.Pos(),
							"map iteration order is random; writing to %q inside the loop is order-sensitive — sort the keys first", root.Name)
					}
				}
				return true
			}
			// fmt.Fprint*(sink, ...) into an outer builder/hash.
			if pkgPath, name, ok := pkgFuncCall(info, stmt); ok && pkgPath == "fmt" && strings.HasPrefix(name, "Fprint") && len(stmt.Args) > 0 {
				if root := rootIdent(stmt.Args[0]); root != nil && !declaredWithin(info, root, rng) {
					pass.Reportf(stmt.Pos(),
						"map iteration order is random; fmt.%s into %q inside the loop is order-sensitive — sort the keys first", name, root.Name)
				}
				return true
			}
			// A same-package callee that appends to longer-lived state.
			for _, edge := range pass.Mod.CalleesOf(stmt) {
				if edge.Kind != EdgeStatic || edge.Callee.Pkg != pass.Pkg || edge.Callee.Obj == nil {
					continue
				}
				if sink := appendedState(edge.Callee); sink != nil && !sortedAfter(info, enclosing, rng, sink) {
					pass.Reportf(stmt.Pos(),
						"map iteration order is random; %s appends to %q, so calling it inside the loop is order-sensitive — sort the keys first or sort %q afterwards",
						edge.Callee.Obj.Name(), sink.Name(), sink.Name())
				}
			}
		}
		return true
	})
}

// rootIdent returns the base identifier of an expression like x, x.f, x.f.g,
// &x, x[i], or x[i:]; nil if there is none.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// appendedState returns the longer-lived slice the function's own body
// appends to — a field of its receiver or a package-level variable — or nil
// if it appends to neither.
func appendedState(fn *FuncNode) *types.Var {
	info := fn.Pkg.Info
	var sink *types.Var
	inspectShallow(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || sink != nil {
			return sink == nil
		}
		if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" || len(call.Args) == 0 {
			return true
		}
		switch target := call.Args[0].(type) {
		case *ast.Ident: // package-level slice
			if v, ok := info.Uses[target].(*types.Var); ok && v.Parent() == fn.Pkg.Types.Scope() {
				sink = v
			}
		case *ast.SelectorExpr: // recv.field
			root := rootIdent(target.X)
			if recv := fn.Sig.Recv(); root != nil && recv != nil && info.Uses[root] == recv {
				sink, _ = info.Uses[target.Sel].(*types.Var)
			}
		}
		return true
	})
	return sink
}

// sortedAfter reports whether, after the range loop in the same function
// body, the appended variable (a local, or the field or package-level slice a
// callee appends to) is passed to a call whose name mentions sort
// (sort.Strings, sort.Slice, slices.Sort, a sortUnique helper, ...): the
// collect-then-sort idiom that restores determinism.
func sortedAfter(info *types.Info, enclosing *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	inspectShallow(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		if !strings.Contains(strings.ToLower(calleeName(call)), "sort") {
			return true
		}
		for _, arg := range call.Args {
			if root := rootIdent(arg); root != nil && info.Uses[root] == obj {
				found = true
				return false
			}
			if sel, ok := arg.(*ast.SelectorExpr); ok && info.Uses[sel.Sel] == obj {
				found = true // sort.Ints(recv.field)
				return false
			}
		}
		return true
	})
	return found
}

// calleeName renders the called function's name: "Strings" for sort.Strings,
// "sortUnique" for a local helper, "" when unknown.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); ok {
			return x.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	}
	return ""
}
