package lint_test

import (
	"testing"

	"webcachesim/internal/lint"
	"webcachesim/internal/lint/linttest"
)

func TestEvictLoop(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.EvictLoop, "evictloop/a")
}

func TestFloatCmp(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.FloatCmp,
		"floatcmp/policy", "floatcmp/report")
}

func TestClockMono(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.ClockMono,
		"clockmono/core", "clockmono/analyze", "clockmono/web")
}

func TestLockOrder(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.LockOrder, "lockorder/cache")
}

func TestGoroExit(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.GoroExit, "goroexit/load")
}

func TestErrDrop(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.ErrDrop, "errdrop/proxy")
}

// TestRealPackagesClean loads representative production packages the
// analyzers are scoped to — the deterministic simulation core and the
// whole concurrent serving stack — and requires a clean bill: the repo
// must keep wcvet green.
func TestRealPackagesClean(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := lint.NewLoader(root)
	pkgs, err := loader.Load([]string{
		"./internal/container/pqueue",
		"./internal/container/intlist",
		"./internal/policy",
		"./internal/core",
		"./internal/cache",
		"./internal/flight",
		"./internal/proxy",
		"./internal/load",
		"./internal/mrc",
		"./internal/cluster",
		"./internal/hierarchy",
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
