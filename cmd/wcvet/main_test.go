package main

import (
	"strings"
	"testing"
)

// TestCleanPackage runs the full pipeline (go list → parse → type-check →
// analyzers) over the miss-coalescing package, which both analyzers
// cover and which must be clean.
func TestCleanPackage(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"./internal/flight"}, &out, &errw)
	if code != 0 {
		t.Fatalf("wcvet exit %d\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "clean") {
		t.Errorf("missing clean summary in output: %s", out.String())
	}
}

func TestBadFlag(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errw); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
}
