package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// PkgPath is the package's import path.
	PkgPath string
	// Dir is the directory holding the package's files.
	Dir string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the parsed syntax trees.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info is the recorded type information.
	Info *types.Info
	// Errors holds type-checking errors. Analysis proceeds on a partial
	// package; callers decide whether errors are fatal.
	Errors []error
}

// Loader loads and type-checks packages of one module using only the
// standard library. Imports resolve through the go/types source importer,
// which consults the go command for module-aware path resolution, so the
// loader needs no pre-compiled export data.
type Loader struct {
	// ModuleRoot is the directory containing go.mod. Patterns passed to
	// Load are interpreted relative to it.
	ModuleRoot string

	fset *token.FileSet
	imp  types.Importer
}

// NewLoader prepares a loader rooted at the given module directory. The
// load leaves _test.go files out: every analyzer encodes a rule for
// production code, and a test bounds its own goroutines, locks and errors
// by its lifetime.
func NewLoader(moduleRoot string) *Loader {
	// The source importer resolves module-internal import paths by asking
	// the go command, which needs a working directory inside the module.
	// Cgo is disabled so std packages with cgo fallbacks (net) type-check
	// from pure-Go sources.
	build.Default.Dir = moduleRoot
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: moduleRoot,
		fset:       fset,
		imp:        importer.ForCompiler(fset, "source", nil),
	}
}

// FindModuleRoot locates the enclosing module root of dir by walking up to
// the first go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load resolves the package patterns (e.g. "./...") with the go command
// and parses and type-checks each matched package.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-f", "{{.ImportPath}}\t{{.Dir}}", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModuleRoot
	out, err := cmd.Output()
	if err != nil {
		detail := ""
		if ee, ok := err.(*exec.ExitError); ok {
			detail = ": " + strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("lint: go list %s failed: %v%s", strings.Join(patterns, " "), err, detail)
	}
	var pkgs []*Package
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line == "" {
			continue
		}
		path, dir, ok := strings.Cut(line, "\t")
		if !ok {
			continue
		}
		loaded, err := l.loadDir(path, dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, loaded)
	}
	return pkgs, nil
}

// loadDir parses one directory's non-test files and type-checks the
// package they hold.
func (l *Loader) loadDir(pkgPath, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		// Honor build constraints (//go:build tags and GOOS/GOARCH file
		// suffixes): loading both sides of a constrained pair would
		// redeclare every symbol.
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	return l.check(pkgPath, dir, files, l.imp), nil
}

// check type-checks one set of files as a single package, resolving
// imports through imp. Type errors are collected, not fatal: analysis runs
// on what was resolved (deliberate-violation fixtures may not fully
// type-check either, e.g. a cross-package access to an unexported field).
func (l *Loader) check(pkgPath, dir string, files []*ast.File, imp types.Importer) *Package {
	p := &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    l.fset,
		Files:   files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { p.Errors = append(p.Errors, err) },
	}
	pkg, err := conf.Check(pkgPath, l.fset, files, p.Info)
	if err != nil && len(p.Errors) == 0 {
		p.Errors = append(p.Errors, err)
	}
	p.Types = pkg
	return p
}

// fixtureImporter resolves import paths GOPATH-style against a testdata
// root (testdata/src/<import path>), falling back to the source importer
// for the standard library. It lets analyzer fixtures form small
// multi-package worlds without being part of the module.
type fixtureImporter struct {
	root   string
	loader *Loader
	pkgs   map[string]*types.Package
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := fi.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(fi.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return fi.loader.imp.Import(path)
	}
	p, err := fi.load(path, dir)
	if err != nil {
		return nil, err
	}
	fi.pkgs[path] = p.Types
	return p.Types, nil
}

func (fi *fixtureImporter) load(path, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fi.loader.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return fi.loader.check(path, dir, files, fi), nil
}

// LoadFixture loads one fixture package from a GOPATH-style testdata root:
// the package's files live at root/<import path>.
func (l *Loader) LoadFixture(root, path string) (*Package, error) {
	fi := &fixtureImporter{root: root, loader: l, pkgs: map[string]*types.Package{}}
	return fi.load(path, filepath.Join(root, filepath.FromSlash(path)))
}
