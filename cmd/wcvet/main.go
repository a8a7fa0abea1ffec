// Command wcvet is the project's static-analysis multichecker: it runs
// the webcachesim-specific analyzers — the simulator-contract checks
// (evictloop, floatcmp, clockmono) and the
// concurrency-contract checks for the sharded serving path (lockorder,
// atomicfield, goroexit, errdrop) — plus a selection of stock go vet
// passes over the given packages (lostcancel among them: the all-paths
// check that every context cancel function is used). See internal/lint
// and docs/ANALYZERS.md.
//
// Usage:
//
//	wcvet [-json] [-tests=false] [-govet=false] [-<analyzer>=false ...] [packages]
//
// Packages default to ./... resolved against the enclosing module root.
// Each analyzer has an enable flag named after it (e.g. -lockorder=false
// disables the lock-discipline check). Findings can be suppressed in
// source with an auditable directive,
//
//	//lint:ignore <analyzer> <reason>
//
// on or directly above the flagged line; suppressions are counted and
// reported, and a directive with an unknown analyzer name or a missing
// reason is itself a finding. With -json the diagnostics, suppressions,
// and per-analyzer suppressed counts are emitted as a single JSON object
// on stdout (the stock go vet passes are skipped there, since their
// output is not machine-readable).
//
// The exit status is 0 when all checks pass (suppressed findings do not
// fail the run), 1 when any analyzer or vet pass reports findings, and 2
// on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"webcachesim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// govetPasses are the stock go vet analyzers wcvet layers on top of the
// project-specific ones.
var govetPasses = []string{
	"-printf", "-copylocks", "-atomic", "-bools",
	"-nilfunc", "-stdmethods", "-unreachable", "-unusedresult", "-lostcancel",
}

// jsonDiagnostic is one unsuppressed finding in -json output.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// jsonSuppression is one //lint:ignore directive in -json output.
type jsonSuppression struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Reason   string `json:"reason"`
	Count    int    `json:"count"`
}

// jsonReport is the -json output document. Diagnostics are the findings
// that fail the run; Suppressed totals the findings silenced per
// analyzer, so suppressions stay auditable from CI output alone.
type jsonReport struct {
	Packages     int               `json:"packages"`
	Analyzers    []string          `json:"analyzers"`
	Diagnostics  []jsonDiagnostic  `json:"diagnostics"`
	Suppressions []jsonSuppression `json:"suppressions"`
	Suppressed   map[string]int    `json:"suppressed"`
}

// buildReport converts a lint result into the -json document, with file
// paths made relative to the module root.
func buildReport(root string, packages int, analyzers []*lint.Analyzer, res *lint.Result) jsonReport {
	rel := func(name string) string {
		if r, err := filepath.Rel(root, name); err == nil {
			return r
		}
		return name
	}
	rep := jsonReport{
		Packages:     packages,
		Analyzers:    []string{},
		Diagnostics:  []jsonDiagnostic{},
		Suppressions: []jsonSuppression{},
		Suppressed:   res.SuppressedByAnalyzer(),
	}
	for _, a := range analyzers {
		rep.Analyzers = append(rep.Analyzers, a.Name)
	}
	for _, d := range res.Diagnostics {
		rep.Diagnostics = append(rep.Diagnostics, jsonDiagnostic{
			Analyzer: d.Analyzer,
			File:     rel(d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	for _, s := range res.Suppressions {
		rep.Suppressions = append(rep.Suppressions, jsonSuppression{
			Analyzer: s.Analyzer,
			File:     rel(s.Pos.Filename),
			Line:     s.Pos.Line,
			Reason:   s.Reason,
			Count:    s.Count,
		})
	}
	return rep
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("wcvet", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		tests   = fs.Bool("tests", true, "analyze _test.go files too")
		govet   = fs.Bool("govet", true, "also run the stock go vet passes")
		jsonOut = fs.Bool("json", false, "emit machine-readable JSON (skips the stock go vet passes)")
	)
	enabled := map[string]*bool{}
	for _, a := range lint.All() {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var analyzers []*lint.Analyzer
	for _, a := range lint.All() {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(errw, "wcvet:", err)
		return 2
	}

	loader := lint.NewLoader(root, *tests)
	pkgs, err := loader.Load(patterns)
	if err != nil {
		fmt.Fprintln(errw, "wcvet:", err)
		return 2
	}

	status := 0
	for _, pkg := range pkgs {
		for _, e := range pkg.Errors {
			fmt.Fprintf(errw, "wcvet: %s: %v\n", pkg.PkgPath, e)
			status = 2
		}
	}
	if status != 0 {
		return status
	}

	res, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(errw, "wcvet:", err)
		return 2
	}

	if *jsonOut {
		rep := buildReport(root, len(pkgs), analyzers, res)
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(errw, "wcvet:", err)
			return 2
		}
		if len(rep.Diagnostics) > 0 {
			return 1
		}
		return 0
	}

	for _, d := range res.Diagnostics {
		pos := d.Pos
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		fmt.Fprintf(out, "%s: %s (%s)\n", pos, d.Message, d.Analyzer)
		status = 1
	}
	if n := suppressedTotal(res); n > 0 {
		fmt.Fprintf(out, "wcvet: %d finding(s) suppressed by //lint:ignore (%s)\n",
			n, suppressedSummary(res))
	}

	if *govet {
		if code := runGoVet(root, patterns, out, errw); code > status {
			status = code
		}
	}

	if status == 0 {
		fmt.Fprintf(out, "wcvet: %d packages clean (%s)\n",
			len(pkgs), analyzerNames(analyzers))
	}
	return status
}

func suppressedTotal(res *lint.Result) int {
	n := 0
	for _, s := range res.Suppressions {
		n += s.Count
	}
	return n
}

// suppressedSummary renders "analyzer: n" pairs in stable order.
func suppressedSummary(res *lint.Result) string {
	byA := res.SuppressedByAnalyzer()
	names := make([]string, 0, len(byA))
	for name, n := range byA {
		if n > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s: %d", name, byA[name])
	}
	return strings.Join(parts, ", ")
}

func runGoVet(root string, patterns []string, out, errw io.Writer) int {
	goBin, err := exec.LookPath("go")
	if err != nil {
		fmt.Fprintln(errw, "wcvet: go command not found; skipping stock vet passes")
		return 0
	}
	args := append([]string{"vet"}, govetPasses...)
	args = append(append(args, "--"), patterns...)
	cmd := exec.Command(goBin, args...)
	cmd.Dir = root
	cmd.Stdout = out
	cmd.Stderr = errw
	if err := cmd.Run(); err != nil {
		return 1
	}
	return 0
}

func analyzerNames(analyzers []*lint.Analyzer) string {
	var names []string
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}
