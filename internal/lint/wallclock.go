package lint

import (
	"go/ast"
	"go/types"
)

// WallclockAnalyzer flags every use of the wall clock — a read or a wait on
// package time, or clock.Wall; called or referenced — in sim-deterministic
// packages. They take time from the one injected clock.Clock or the
// simulator's virtual clock, so that runs replay bit-for-bit; one stray read
// or timer makes a run unreproducible in a way no test reliably catches.
var WallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc:  "disallow the wall clock (time.Now/Since/Until, timers, tickers, sleeps, clock.Wall) in sim-deterministic packages",
	Run:  runWallclock,
}

// wallclockUses holds the wall-clock uses by "<package name>.<name>".
var wallclockUses = map[string]bool{"time.Now": true, "time.Since": true, "time.Until": true,
	"time.After": true, "time.AfterFunc": true, "time.NewTimer": true, "time.NewTicker": true,
	"time.Sleep": true, "time.Tick": true, "clock.Wall": true}

func runWallclock(pass *Pass) {
	for _, file := range pass.Pkg.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pn, ok := pass.Pkg.Info.Uses[ident].(*types.PkgName); ok && wallclockUses[pn.Imported().Name()+"."+sel.Sel.Name] {
				pass.Reportf(sel.Pos(), "%s.%s uses the wall clock; take time from the injected clock.Clock (or the sim's clock)", pn.Imported().Name(), sel.Sel.Name)
			}
			return true
		})
	}
}
