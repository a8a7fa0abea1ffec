package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestCleanPackage runs the full pipeline (go list → parse → type-check →
// analyzers) over the heap package, which must be clean.
func TestCleanPackage(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-govet=false", "./internal/container/pqueue"}, &out, &errw)
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

// TestJSONReport runs wcvet -json over a clean package and checks the
// output is a valid report with the full analyzer roster and no findings.
func TestJSONReport(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-json", "./internal/container/pqueue"}, &out, &errw)
	if code != 0 {
		t.Fatalf("wcvet -json exit %d\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Packages < 1 {
		t.Errorf("packages = %d, want >= 1", rep.Packages)
	}
	if len(rep.Diagnostics) != 0 {
		t.Errorf("diagnostics = %v, want none", rep.Diagnostics)
	}
	if got, want := len(rep.Analyzers), 7; got != want {
		t.Errorf("analyzers = %d (%v), want %d", got, rep.Analyzers, want)
	}
}

// TestJSONSuppressions checks that the real //lint:ignore directive in
// internal/proxy surfaces in the -json report: counted per analyzer,
// listed with its reason, and not a failing diagnostic.
func TestJSONSuppressions(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-json", "./internal/proxy"}, &out, &errw)
	if code != 0 {
		t.Fatalf("wcvet -json exit %d\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(rep.Diagnostics) != 0 {
		t.Errorf("diagnostics = %v, want none", rep.Diagnostics)
	}
	if rep.Suppressed["errdrop"] < 1 {
		t.Errorf("suppressed[errdrop] = %d, want >= 1 (admin.go carries a directive)", rep.Suppressed["errdrop"])
	}
	found := false
	for _, s := range rep.Suppressions {
		if s.Analyzer == "errdrop" && s.Count > 0 && s.Reason != "" {
			found = true
		}
	}
	if !found {
		t.Errorf("no live errdrop suppression with a reason in %v", rep.Suppressions)
	}
}

// TestAnalyzerDisableFlag checks the per-analyzer enable flags: with
// -errdrop=false the roster shrinks and the proxy suppression is no
// longer counted.
func TestAnalyzerDisableFlag(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-json", "-errdrop=false", "./internal/proxy"}, &out, &errw)
	if code != 0 {
		t.Fatalf("wcvet exit %d\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if got, want := len(rep.Analyzers), 6; got != want {
		t.Errorf("analyzers = %d (%v), want %d", got, rep.Analyzers, want)
	}
	for _, name := range rep.Analyzers {
		if name == "errdrop" {
			t.Errorf("errdrop still in roster after -errdrop=false: %v", rep.Analyzers)
		}
	}
	if rep.Suppressed["errdrop"] != 0 {
		t.Errorf("suppressed[errdrop] = %d after disabling, want 0", rep.Suppressed["errdrop"])
	}
}
