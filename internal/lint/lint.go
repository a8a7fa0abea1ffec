// Package lint is a project-specific static-analysis layer for the
// webcachesim tree. It provides a small analyzer framework modeled on
// golang.org/x/tools/go/analysis — an Analyzer runs over one type-checked
// package at a time and reports position-anchored diagnostics — but is
// built entirely on the standard library (go/ast, go/types and the source
// importer), so the module stays dependency-free.
//
// The analyzers encode the Policy contract documented in internal/policy,
// the determinism requirements of the simulator core, and the concurrency
// invariants of the sharded serving path:
//
//   - evictloop: Evict reports false when the policy is empty; an eviction
//     loop that ignores that signal can spin forever.
//   - floatcmp: priority/cost float math in the heap-based schemes must
//     not compare with ==/!= or unguarded ordering, where a silent NaN
//     corrupts eviction order without failing any test.
//   - clockmono: simulation hot paths must be deterministic — no wall
//     clock, no globally seeded randomness, no order-dependent map
//     iteration.
//   - lockorder: inside the sharded cache, at most one shard mutex is
//     held at a time, and no mutex is held across a channel operation or
//     an origin fetch.
//   - atomicfield: a struct field managed through sync/atomic is never
//     read or written plainly anywhere in its package.
//   - goroexit: goroutines in the concurrent serving/simulation packages
//     have a bounded exit: joined by a WaitGroup or looping on a
//     close/ctx.Done signal.
//   - errdrop: error results in the serving/simulation hot paths are
//     never discarded silently; a blank assignment needs an adjacent
//     justification comment.
//
// Diagnostics can be suppressed with an auditable directive,
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed on the flagged line or on the line directly above it. Run counts
// every suppression and reports it alongside the surviving diagnostics; a
// directive naming an unknown analyzer, or missing its reason, is itself a
// diagnostic (analyzer name "lintignore").
//
// The cmd/wcvet command runs all of the analyzers (plus selected stock go
// vet passes) over the repository, with per-analyzer enable flags and a
// -json machine-readable mode for CI.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one static check. Run inspects a single package through the
// Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and documentation.
	Name string
	// Doc is a one-paragraph description of what the analyzer flags.
	Doc string
	// SkipTests excludes _test.go files from the analysis. Checks that
	// encode production-only requirements (determinism, NaN hygiene) set
	// it; contract checks that apply equally to test code leave it unset.
	SkipTests bool
	// Run performs the analysis.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions back to file/line/column.
	Fset *token.FileSet
	// Files are the syntax trees under analysis (already filtered when the
	// analyzer skips test files).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type information recorded for Files.
	Info *types.Info

	diagnostics []Diagnostic
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	// Analyzer names the check that produced the finding.
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message describes the finding.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the project analyzers in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		EvictLoop, FloatCmp, ClockMono,
		LockOrder, AtomicField, GoroExit, ErrDrop,
	}
}

// IgnoreAnalyzer names the pseudo-analyzer under which malformed
// //lint:ignore directives are reported. Directive diagnostics cannot
// themselves be suppressed.
const IgnoreAnalyzer = "lintignore"

// Suppression records one diagnostic class silenced by a //lint:ignore
// directive: which analyzer, where, why, and how many findings it
// absorbed. Directives with Count zero suppressed nothing — they are
// still reported so stale suppressions stay visible.
type Suppression struct {
	// Analyzer is the analyzer the directive silences.
	Analyzer string
	// Pos locates the directive comment.
	Pos token.Position
	// Reason is the directive's mandatory justification text.
	Reason string
	// Count is the number of diagnostics the directive suppressed.
	Count int
}

// Result is the outcome of a Run: the surviving diagnostics plus an audit
// trail of everything //lint:ignore directives silenced.
type Result struct {
	// Diagnostics are the findings not covered by a suppression, sorted
	// by file, line and column.
	Diagnostics []Diagnostic
	// Suppressions lists every valid //lint:ignore directive seen, with
	// its suppressed-finding count.
	Suppressions []Suppression
}

// SuppressedByAnalyzer totals the suppressed findings per analyzer.
func (r *Result) SuppressedByAnalyzer() map[string]int {
	out := map[string]int{}
	for _, s := range r.Suppressions {
		out[s.Analyzer] += s.Count
	}
	return out
}

// Run applies each analyzer to each package, resolves //lint:ignore
// directives, and returns the surviving findings sorted by file, line and
// column. Packages are analyzed in parallel (bounded by GOMAXPROCS); each
// analyzer sees one package at a time, so analyzers need no locking of
// their own.
func Run(pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	type pkgOut struct {
		diags []Diagnostic
		sups  []Suppression
		err   error
	}
	outs := make([]pkgOut, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var diags []Diagnostic
			for _, a := range analyzers {
				ds, err := runOne(pkg, a)
				if err != nil {
					outs[i].err = fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
					return
				}
				diags = append(diags, ds...)
			}
			outs[i].diags, outs[i].sups = applyDirectives(pkg, diags)
		}(i, pkg)
	}
	wg.Wait()

	res := &Result{}
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		res.Diagnostics = append(res.Diagnostics, o.diags...)
		res.Suppressions = append(res.Suppressions, o.sups...)
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		return posLess(res.Diagnostics[i].Pos, res.Diagnostics[j].Pos,
			res.Diagnostics[i].Analyzer, res.Diagnostics[j].Analyzer)
	})
	sort.Slice(res.Suppressions, func(i, j int) bool {
		return posLess(res.Suppressions[i].Pos, res.Suppressions[j].Pos,
			res.Suppressions[i].Analyzer, res.Suppressions[j].Analyzer)
	})
	return res, nil
}

func posLess(a, b token.Position, aName, bName string) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	if a.Column != b.Column {
		return a.Column < b.Column
	}
	return aName < bName
}

// directive is one parsed //lint:ignore comment.
type directive struct {
	pos       token.Position
	analyzers []string
	reason    string
	counts    []int // parallel to analyzers
}

// applyDirectives parses every //lint:ignore directive in the package,
// validates it, and filters the diagnostics it covers. A directive covers
// findings on its own line (trailing form) and on the line directly below
// it (standalone form), in the same file. Malformed directives become
// IgnoreAnalyzer diagnostics and suppress nothing.
func applyDirectives(pkg *Package, diags []Diagnostic) ([]Diagnostic, []Suppression) {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var dirs []*directive
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				names, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				reason = strings.TrimSpace(reason)
				d := &directive{pos: pos, reason: reason}
				valid := true
				for _, name := range strings.Split(names, ",") {
					name = strings.TrimSpace(name)
					if !known[name] {
						bad = append(bad, Diagnostic{
							Analyzer: IgnoreAnalyzer,
							Pos:      pos,
							Message: fmt.Sprintf(
								"//lint:ignore names unknown analyzer %q; run wcvet -h for the known set", name),
						})
						valid = false
						continue
					}
					d.analyzers = append(d.analyzers, name)
				}
				if reason == "" {
					bad = append(bad, Diagnostic{
						Analyzer: IgnoreAnalyzer,
						Pos:      pos,
						Message:  "//lint:ignore requires a reason after the analyzer name; unexplained suppressions are unauditable",
					})
					valid = false
				}
				if valid && len(d.analyzers) > 0 {
					d.counts = make([]int, len(d.analyzers))
					dirs = append(dirs, d)
				}
			}
		}
	}

	var out []Diagnostic
	for _, dg := range diags {
		suppressed := false
		for _, d := range dirs {
			if d.pos.Filename != dg.Pos.Filename {
				continue
			}
			if dg.Pos.Line != d.pos.Line && dg.Pos.Line != d.pos.Line+1 {
				continue
			}
			for i, name := range d.analyzers {
				if name == dg.Analyzer {
					d.counts[i]++
					suppressed = true
					break
				}
			}
			if suppressed {
				break
			}
		}
		if !suppressed {
			out = append(out, dg)
		}
	}
	out = append(out, bad...)

	var sups []Suppression
	for _, d := range dirs {
		for i, name := range d.analyzers {
			sups = append(sups, Suppression{
				Analyzer: name,
				Pos:      d.pos,
				Reason:   d.reason,
				Count:    d.counts[i],
			})
		}
	}
	return out, sups
}

func runOne(pkg *Package, a *Analyzer) ([]Diagnostic, error) {
	files := pkg.Files
	if a.SkipTests {
		files = nil
		for _, f := range pkg.Files {
			if !pkg.IsTest[f] {
				files = append(files, f)
			}
		}
	}
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	return pass.diagnostics, nil
}

// inspectStack walks the subtree rooted at root in depth-first order,
// calling fn with each node and the stack of its ancestors
// (stack[len(stack)-1] is the parent). Returning false prunes the subtree.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// isFloat reports whether t's underlying type is a floating-point basic
// type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (method or package-level function), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
