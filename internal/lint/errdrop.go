package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ErrDrop forbids silently discarded errors in the hot serving and
// simulation packages.
//
// The proxy's correctness story leans on errors propagating: a failed
// origin fetch must surface so the retry/stale machinery runs, a failed
// log write must at least be a conscious decision, and a failed cache
// insert is an accounted reject, not a shrug. An error dropped on the
// floor in cache/flight/proxy/load/core/mrc is a latent production bug —
// or, when genuinely ignorable, a fact worth one line of justification.
//
// Three shapes are flagged:
//
//   - a call used as a bare statement whose results include an error —
//     the drop is invisible at the call site;
//   - `defer f()` where f returns an error — the deferred result vanishes;
//   - an error assigned to the blank identifier without an adjacent
//     justification comment (trailing on the same line, or a comment
//     ending on the line directly above).
//
// The sanctioned form for a deliberate drop is therefore
//
//	// client went away; the response was already committed
//	_ = w.Write(body)
//
// which keeps every ignored error auditable. Fixture want-annotations do
// not count as justification.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc: "no silently discarded errors in the hot paths; blank-assigned " +
		"errors need an adjacent justification comment",
	Run: runErrDrop,
}

func runErrDrop(pass *Pass) error {
	if pass.Pkg == nil || !servingPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		comments := justificationLines(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := ast.Unparen(n.X).(*ast.CallExpr)
				if !ok {
					return true
				}
				if i := errorResultIndex(pass.Info, call); i >= 0 {
					pass.Reportf(call.Pos(),
						"error result of %s discarded; handle it, or assign `_ =` with a justification comment", callName(call))
				}
			case *ast.DeferStmt:
				if i := errorResultIndex(pass.Info, n.Call); i >= 0 {
					pass.Reportf(n.Call.Pos(),
						"deferred call discards %s's error; wrap it: defer func() { _ = ... }() with a justification comment", callName(n.Call))
				}
			case *ast.AssignStmt:
				checkBlankErrAssign(pass, comments, n)
			}
			return true
		})
	}
	return nil
}

// checkBlankErrAssign flags error results assigned to `_` without an
// adjacent justification comment.
func checkBlankErrAssign(pass *Pass, comments map[int]bool, as *ast.AssignStmt) {
	report := func(pos token.Pos, call *ast.CallExpr) {
		line := pass.Fset.Position(pos).Line
		if comments[line] || comments[line-1] {
			return
		}
		pass.Reportf(pos,
			"error result of %s dropped with `_ =` but no adjacent justification comment; say why it is ignorable", callName(call))
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// Tuple form: a, _ := f().
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		tup, ok := pass.Info.TypeOf(call).(*types.Tuple)
		if !ok || tup.Len() != len(as.Lhs) {
			return
		}
		for i, lhs := range as.Lhs {
			if isBlank(lhs) && isErrorType(tup.At(i).Type()) {
				report(lhs.Pos(), call)
				return
			}
		}
		return
	}
	// Parallel form: _, _ = f(), g() — each RHS is single-valued.
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		if !isBlank(lhs) {
			continue
		}
		call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
		if !ok {
			continue
		}
		if t := pass.Info.TypeOf(call); t != nil && isErrorType(t) {
			report(lhs.Pos(), call)
		}
	}
}

// justificationLines returns the set of lines in f carrying a comment
// usable as a drop justification. // want fixture annotations are
// excluded — a test expectation is not an explanation.
func justificationLines(pass *Pass, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
			if strings.HasPrefix(strings.TrimSpace(text), "want ") {
				continue
			}
			start := pass.Fset.Position(c.Pos()).Line
			end := pass.Fset.Position(c.End()).Line
			for l := start; l <= end; l++ {
				lines[l] = true
			}
		}
	}
	return lines
}

// errorResultIndex returns the index of the first error-typed result of
// the call, or -1 when the call returns no error.
func errorResultIndex(info *types.Info, call *ast.CallExpr) int {
	t := info.TypeOf(call)
	switch t := t.(type) {
	case nil:
		return -1
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return i
			}
		}
		return -1
	default:
		if isErrorType(t) {
			return 0
		}
		return -1
	}
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// callName renders a short name for the called function, for diagnostics.
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	default:
		return "call"
	}
}
