package lint_test

import (
	"testing"

	"webcachesim/internal/lint"
	"webcachesim/internal/lint/linttest"
)

func TestGoroExit(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.GoroExit, "goroexit/load")
}

func TestErrDrop(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.ErrDrop, "errdrop/proxy")
}

// TestRealPackagesClean loads exactly the production packages the
// analyzers are scoped to (goroexit's and errdrop's serving and
// simulation packages) and requires a clean bill: the repo must keep
// wcvet green.
func TestRealPackagesClean(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := lint.NewLoader(root)
	pkgs, err := loader.Load([]string{
		"./internal/cache",
		"./internal/cluster",
		"./internal/core",
		"./internal/flight",
		"./internal/hierarchy",
		"./internal/load",
		"./internal/mrc",
		"./internal/proxy",
		"./internal/trace",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.Errors {
			t.Errorf("%s: type error: %v", pkg.PkgPath, e)
		}
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}
