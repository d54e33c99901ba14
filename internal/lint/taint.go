package lint

import (
	"go/ast"
	"go/types"
)

// Determinism taint: values derived from time.Now/Since/Until or the global
// math/rand functions. The intra-function analysis is flow-insensitive label
// propagation over local objects; the interprocedural part is the
// ReturnsTainted / ParamFlows summary fields, computed bottom-up so a wall
// clock read three packages away still taints the value a sim-deterministic
// package receives.

// taintLabel tracks where a value may come from: the wall clock / global
// rand ("real" taint), and/or any of the enclosing function's parameters
// (a bitset; functions with more than 64 parameters do not occur).
type taintLabel struct {
	real   bool
	params uint64
}

func (l taintLabel) union(o taintLabel) taintLabel {
	return taintLabel{real: l.real || o.real, params: l.params | o.params}
}

func (l taintLabel) empty() bool { return !l.real && l.params == 0 }

// taintState is the fixpoint result for one function: labels for every local
// object plus the label and provenance of the function's return values.
type taintState struct {
	m    *Module
	node *FuncNode
	// labels maps params, locals, and named results to what flows into them.
	labels map[types.Object]taintLabel
	// why records, for each object with real taint, a human-readable root
	// cause ("time.Now at sim.go:12" or "via pkg.f → time.Now at x.go:3").
	why map[types.Object]string

	retLabel taintLabel
	retWhy   string
	params   []*types.Var
}

// funcTaint runs the intra-function taint fixpoint for one node, using the
// already-computed summaries of its static callees (so it must run in
// bottom-up SCC order during summary construction; analyzers re-running it
// later see the final summaries).
func funcTaint(m *Module, n *FuncNode) *taintState {
	st := &taintState{
		m:      m,
		node:   n,
		labels: map[types.Object]taintLabel{},
		why:    map[types.Object]string{},
	}
	if n.Sig != nil {
		for i := 0; i < n.Sig.Params().Len(); i++ {
			p := n.Sig.Params().At(i)
			st.params = append(st.params, p)
			if i < 64 {
				st.labels[p] = taintLabel{params: 1 << uint(i)}
			}
		}
	}
	// Flow-insensitive fixpoint: iterate assignments until stable. Function
	// bodies are small; the label lattice height bounds iterations anyway.
	for iter := 0; iter < 32; iter++ {
		if !st.sweep() {
			break
		}
	}
	st.computeReturns()
	return st
}

// sweep propagates labels through every statement once; reports change.
func (st *taintState) sweep() bool {
	changed := false
	assign := func(obj types.Object, l taintLabel, why string) {
		if obj == nil || l.empty() {
			return
		}
		old := st.labels[obj]
		merged := old.union(l)
		if merged != old {
			st.labels[obj] = merged
			changed = true
		}
		if l.real && st.why[obj] == "" && why != "" {
			st.why[obj] = why
		}
	}
	inspectShallow(st.node.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			st.sweepAssign(v, assign)
		case *ast.GenDecl:
			for _, spec := range v.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if len(vs.Values) == len(vs.Names) {
						rhs = vs.Values[i]
					} else if len(vs.Values) == 1 {
						rhs = vs.Values[0]
					}
					if rhs != nil {
						l, why := st.exprLabel(rhs)
						assign(st.node.Pkg.Info.Defs[name], l, why)
					}
				}
			}
		case *ast.RangeStmt:
			l, why := st.exprLabel(v.X)
			if !l.empty() {
				for _, e := range []ast.Expr{v.Key, v.Value} {
					if id, ok := e.(*ast.Ident); ok && e != nil {
						assign(st.objOf(id), l, why)
					}
				}
			}
		}
		return true
	})
	return changed
}

func (st *taintState) sweepAssign(v *ast.AssignStmt, assign func(types.Object, taintLabel, string)) {
	if len(v.Lhs) == len(v.Rhs) {
		for i := range v.Lhs {
			l, why := st.exprLabel(v.Rhs[i])
			st.assignTo(v.Lhs[i], l, why, assign)
		}
		return
	}
	// Tuple assignment: every LHS gets the single RHS's label.
	if len(v.Rhs) == 1 {
		l, why := st.exprLabel(v.Rhs[0])
		for _, lhs := range v.Lhs {
			st.assignTo(lhs, l, why, assign)
		}
	}
}

// assignTo taints the object behind an assignment target. A store into a
// field or element taints the whole root object (coarse, conservative).
func (st *taintState) assignTo(lhs ast.Expr, l taintLabel, why string, assign func(types.Object, taintLabel, string)) {
	if l.empty() {
		return
	}
	if root := rootIdent(lhs); root != nil {
		assign(st.objOf(root), l, why)
	}
}

func (st *taintState) objOf(id *ast.Ident) types.Object {
	info := st.node.Pkg.Info
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// exprLabel computes what flows into an expression, with a root-cause string
// when real taint is involved.
func (st *taintState) exprLabel(e ast.Expr) (taintLabel, string) {
	if e == nil {
		return taintLabel{}, ""
	}
	switch v := e.(type) {
	case *ast.Ident:
		obj := st.objOf(v)
		if obj == nil {
			return taintLabel{}, ""
		}
		return st.labels[obj], st.why[obj]
	case *ast.ParenExpr:
		return st.exprLabel(v.X)
	case *ast.UnaryExpr:
		return st.exprLabel(v.X)
	case *ast.StarExpr:
		return st.exprLabel(v.X)
	case *ast.BinaryExpr:
		lx, wx := st.exprLabel(v.X)
		ly, wy := st.exprLabel(v.Y)
		return lx.union(ly), firstNonEmpty(wx, wy)
	case *ast.SelectorExpr:
		// x.f carries x's taint (field of a tainted struct). Qualified
		// identifiers (pkg.Var) have no local label.
		if _, isPkg := st.node.Pkg.Info.Uses[selRoot(v)].(*types.PkgName); isPkg {
			return taintLabel{}, ""
		}
		return st.exprLabel(v.X)
	case *ast.IndexExpr:
		lx, wx := st.exprLabel(v.X)
		li, wi := st.exprLabel(v.Index)
		return lx.union(li), firstNonEmpty(wx, wi)
	case *ast.SliceExpr:
		return st.exprLabel(v.X)
	case *ast.TypeAssertExpr:
		return st.exprLabel(v.X)
	case *ast.CompositeLit:
		var l taintLabel
		var why string
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			le, we := st.exprLabel(el)
			l = l.union(le)
			why = firstNonEmpty(why, we)
		}
		return l, why
	case *ast.CallExpr:
		return st.callLabel(v)
	case *ast.FuncLit:
		return taintLabel{}, ""
	}
	return taintLabel{}, ""
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

func selRoot(sel *ast.SelectorExpr) *ast.Ident {
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		return id
	}
	return nil
}

// callLabel classifies a call's result taint: a direct source, a module
// callee whose summary returns taint (or forwards tainted arguments), a
// method on a tainted receiver, or — for unknown (non-module) functions — the
// conservative union of argument and receiver taint (this is what carries
// t.UnixNano(), fmt.Sprintf("%d", t), and strconv conversions).
func (st *taintState) callLabel(call *ast.CallExpr) (taintLabel, string) {
	info := st.node.Pkg.Info
	// Conversions propagate the operand.
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return st.exprLabel(call.Args[0])
		}
		return taintLabel{}, ""
	}
	if src := taintSourceCall(info, call); src != "" {
		return taintLabel{real: true}, src + " at " + posString(st.node.Pkg.Fset, call.Pos())
	}

	var out taintLabel
	var why string
	resolved := false
	for _, e := range st.m.CalleesOf(call) {
		if e.Kind != EdgeStatic {
			continue
		}
		resolved = true
		cs := e.Callee.Summary()
		if cs == nil {
			continue
		}
		if cs.ReturnsTainted {
			out.real = true
			why = firstNonEmpty(why, extendPath(e.Callee.Name, "")+" → "+cs.TaintWhy)
		}
		for i, flows := range cs.ParamFlows {
			if !flows {
				continue
			}
			args := call.Args
			if i < len(args) {
				l, w := st.exprLabel(args[i])
				out = out.union(l)
				why = firstNonEmpty(why, w)
			}
		}
	}
	// Method calls carry receiver taint regardless of resolution (module
	// methods may also forward it; the union is conservative either way).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isPkg := info.Uses[selRoot(sel)].(*types.PkgName); !isPkg {
			if s, isSel := info.Selections[sel]; isSel && s.Kind() == types.MethodVal {
				l, w := st.exprLabel(sel.X)
				out = out.union(l)
				why = firstNonEmpty(why, w)
			}
		}
	}
	if !resolved {
		// Unknown function: taint in, taint out.
		for _, arg := range call.Args {
			l, w := st.exprLabel(arg)
			out = out.union(l)
			why = firstNonEmpty(why, w)
		}
	}
	return out, why
}

// taintSourceCall reports the root determinism-taint sources: wall-clock
// reads and global math/rand draws. The seeded-constructor calls are clean —
// an injected *rand.Rand is exactly the sanctioned idiom.
func taintSourceCall(info *types.Info, call *ast.CallExpr) string {
	pkgPath, name, ok := pkgFuncCall(info, call)
	if !ok {
		return ""
	}
	switch pkgPath {
	case "time":
		if wallclockUses["time."+name] {
			return "time." + name
		}
	case "math/rand", "math/rand/v2":
		if !seedrandAllowed[name] {
			return "rand." + name
		}
	}
	return ""
}

// computeReturns folds every return statement (and named results) into the
// function's return label.
func (st *taintState) computeReturns() {
	sig := st.node.Sig
	var named []*types.Var
	if sig != nil {
		for i := 0; i < sig.Results().Len(); i++ {
			if r := sig.Results().At(i); r.Name() != "" {
				named = append(named, r)
			}
		}
	}
	inspectShallow(st.node.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 0 {
			for _, r := range named {
				st.retLabel = st.retLabel.union(st.labels[r])
				st.retWhy = firstNonEmpty(st.retWhy, st.why[r])
			}
			return true
		}
		for _, r := range ret.Results {
			l, w := st.exprLabel(r)
			st.retLabel = st.retLabel.union(l)
			st.retWhy = firstNonEmpty(st.retWhy, w)
		}
		return true
	})
	// A bare-return-free function can still publish via named results at the
	// closing brace only through panic/recover shapes; ignore.
}

// computeTaintSummaries fills ReturnsTainted/ParamFlows bottom-up. It runs
// after the other summary fields because callLabel consults callee
// summaries; SCCs iterate to fixpoint like propagateCallees.
func computeTaintSummaries(m *Module) {
	for _, scc := range sccOrder(m.Nodes) {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				st := funcTaint(m, n)
				s := n.summary
				if st.retLabel.real && !s.ReturnsTainted {
					s.ReturnsTainted = true
					s.TaintWhy = st.retWhy
					if s.TaintWhy == "" {
						s.TaintWhy = "wall-clock/global-rand derived value"
					}
					changed = true
				}
				flows := make([]bool, len(st.params))
				for i := range st.params {
					if i < 64 && st.retLabel.params&(1<<uint(i)) != 0 {
						flows[i] = true
					}
				}
				for i, f := range flows {
					if f && (i >= len(s.ParamFlows) || !s.ParamFlows[i]) {
						changed = true
					}
				}
				s.ParamFlows = flows
			}
			if len(scc) == 1 {
				break
			}
		}
	}
}
