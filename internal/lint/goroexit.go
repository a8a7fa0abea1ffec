package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroExit requires every goroutine in the concurrent packages to have a
// provably bounded exit.
//
// The serving path and the sweep engine launch workers — cell runners,
// the MRC scan, load-generator clients, the trace feeder — and a worker
// whose exit depends on "the work just runs out" is one refactor away
// from a leak: a goroutine blocked on a send nobody receives survives the
// request, the test, and (under an admin endpoint) the process's memory
// profile. The rule the repo's workers already follow is made mandatory:
// a goroutine must either be joined by a sync.WaitGroup (wg.Done anywhere
// in its body, Wait at the launcher) or loop on an explicit shutdown
// signal — ranging over a channel that closing drains, or receiving from
// a channel / ctx.Done() in a select.
//
// The analyzer is scoped to the packages built around goroutines (cache,
// flight, proxy, load, core, mrc); _test.go files are exempt, since tests
// bound their goroutines by the test's own lifetime.
var GoroExit = &Analyzer{
	Name: "goroexit",
	Doc: "goroutines in the concurrent packages must be WaitGroup-joined " +
		"or loop on a close/ctx.Done signal",
	Run: runGoroExit,
}

func runGoroExit(pass *Pass) error {
	if pass.Pkg == nil || !servingPackages[pass.Pkg.Name()] {
		return nil
	}
	decls := funcDeclBodies(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goroBounded(pass, g, decls) {
				pass.Reportf(g.Pos(),
					"goroutine has no bounded exit: join it with a sync.WaitGroup or loop on a close/ctx.Done signal so workers cannot leak")
			}
			return true
		})
	}
	return nil
}

// funcDeclBodies maps each package function to its body, so `go f()` on a
// named same-package function can be checked through its declaration.
func funcDeclBodies(pass *Pass) map[*types.Func]*ast.BlockStmt {
	out := map[*types.Func]*ast.BlockStmt{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, _ := pass.Info.Defs[fd.Name].(*types.Func); fn != nil {
				out[fn] = fd.Body
			}
		}
	}
	return out
}

// goroBounded reports whether the launched function's body shows a
// bounded-exit discipline.
func goroBounded(pass *Pass, g *ast.GoStmt, decls map[*types.Func]*ast.BlockStmt) bool {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		return bodyBounded(pass, fun.Body)
	default:
		if isWaitGroupDone(pass.Info, g.Call) {
			return true // `go wg.Done()` — degenerate but joined
		}
		if fn := calleeFunc(pass.Info, g.Call); fn != nil {
			if body, ok := decls[fn]; ok {
				return bodyBounded(pass, body)
			}
		}
		// A foreign function's body is out of reach; require the launch
		// site to wrap it in a joined or signal-bounded literal.
		return false
	}
}

// bodyBounded reports whether body contains any of the accepted exit
// disciplines: a WaitGroup Done, a range over a channel, or a channel
// receive (which covers select-on-ctx.Done loops).
func bodyBounded(pass *Pass, body *ast.BlockStmt) bool {
	bounded := false
	ast.Inspect(body, func(n ast.Node) bool {
		if bounded {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isWaitGroupDone(pass.Info, n) {
				bounded = true
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					bounded = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				bounded = true
			}
		}
		return !bounded
	})
	return bounded
}

// isWaitGroupDone reports whether the call is Done() on a sync.WaitGroup.
func isWaitGroupDone(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
