package lint

import (
	"go/ast"
)

// GoleakAnalyzer flags `go` statements that spawn a goroutine with no
// reachable termination path. The spawned body (a literal, or the static
// callee chain resolved through the call graph) is searched for an
// unconditional for-loop that contains no return, no break targeting the
// loop, no goto, and no process exit: once entered, such a loop runs for the
// life of the process, which is exactly the leak of a watcher goroutine
// spawned per poll — under churn the leaked goroutines accumulate until the
// scheduler drowns.
//
// The accepted termination shapes all surface as an exit statement inside
// the loop: `case <-done: return`, `if ctx.Err() != nil { return }`,
// `v, ok := <-ch; if !ok { return }`, or a bounded `for cond {}` loop in the
// first place. An unlabeled break inside a nested select/switch targets the
// inner construct, not the loop — `for { select { case <-done: break } }`
// still leaks and is still reported. Goroutines spawned through interface or
// funcvalue dispatch are not analyzed (the over-approximated target set
// would flood the report); range-over-channel loops terminate on close and
// are accepted.
var GoleakAnalyzer = &Analyzer{
	Name: "goleak",
	Doc:  "every spawned goroutine must have a reachable termination path",
	Run:  runGoleak,
}

func runGoleak(pass *Pass) {
	if pass.Mod == nil {
		return
	}
	for _, file := range pass.Pkg.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			for _, e := range pass.Mod.CalleesOf(g.Call) {
				if e.Kind != EdgeStatic {
					continue
				}
				s := e.Callee.Summary()
				if s == nil || !s.Hangs {
					continue
				}
				where := posString(e.Callee.Pkg.Fset, s.HangPos)
				chain := ""
				if e.Callee.Lit == nil || s.HangPath != "" {
					chain = " in " + e.Callee.Name
					if s.HangPath != "" {
						chain += " (" + s.HangPath + ")"
					}
				}
				pass.Reportf(g.Pos(),
					"goroutine has no termination path: unconditional loop%s at %s never returns or breaks; add a done/stop receive or context check", chain, where)
				return true // one finding per go statement
			}
			return true
		})
	}
}
