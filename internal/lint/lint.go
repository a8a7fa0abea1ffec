// Package lint is a project-specific static-analysis layer for the
// webcachesim tree. It provides a small analyzer framework modeled on
// golang.org/x/tools/go/analysis — an Analyzer runs over one type-checked
// package at a time and reports position-anchored diagnostics — but is
// built entirely on the standard library (go/ast, go/types and the source
// importer), so the module stays dependency-free.
//
// The analyzers encode two invariants of the serving path and the
// simulation engine it shares:
//
//   - goroexit: goroutines in the concurrent serving/simulation packages
//     have a bounded exit: joined by a WaitGroup or looping on a
//     close/ctx.Done signal.
//   - errdrop: error results in the serving/simulation hot paths are
//     never discarded silently; a blank assignment needs an adjacent
//     justification comment.
//
// The simulator's contracts (an empty policy ends an eviction loop, NaN
// priorities order deterministically, a replay is a pure function of the
// trace) and the cache's one-shard-lock-at-a-time rule are held by tests,
// not analyzers: docs/ANALYZERS.md names the test behind each retired
// rule.
//
// There is no suppression directive: a deliberate exception is written
// in the form the analyzer accepts (errdrop's justification comment), or
// the analyzer is narrowed. The cmd/wcvet command runs all of the
// analyzers over the given packages.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"sync"
)

// Analyzer is one static check. Run inspects a single package through the
// Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and documentation.
	Name string
	// Doc is a one-paragraph description of what the analyzer flags.
	Doc string
	// Run performs the analysis.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions back to file/line/column.
	Fset *token.FileSet
	// Files are the syntax trees under analysis.
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
	return []*Analyzer{GoroExit, ErrDrop}
}

// servingPackages names the packages (by package name) both analyzers
// hold to their rules: the serving path and the simulation engine it
// shares.
var servingPackages = map[string]bool{
	"cache": true, "flight": true, "proxy": true,
	"load": true, "core": true, "mrc": true, "trace": true,
	"cluster": true, "hierarchy": true,
}

// Run applies each analyzer to each package and returns the findings
// sorted by file, line, column and analyzer. Packages are analyzed in
// parallel (bounded by GOMAXPROCS); each analyzer sees one package at a
// time, so analyzers need no locking of their own.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	type pkgOut struct {
		diags []Diagnostic
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
			for _, a := range analyzers {
				ds, err := runOne(pkg, a)
				if err != nil {
					outs[i].err = fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
					return
				}
				outs[i].diags = append(outs[i].diags, ds...)
			}
		}(i, pkg)
	}
	wg.Wait()

	var diags []Diagnostic
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		diags = append(diags, o.diags...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

func runOne(pkg *Package, a *Analyzer) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	return pass.diagnostics, nil
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
