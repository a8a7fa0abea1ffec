// Command wcvet is the project's static-analysis multichecker: it runs
// the webcachesim-specific analyzers — goroexit and errdrop, the
// serving path's goroutine-exit and error-handling contracts — over the
// given packages' non-test files. The stock passes are go vet's job
// (`go vet ./...`). See internal/lint and docs/ANALYZERS.md.
//
// Usage:
//
//	wcvet [packages]
//
// Packages default to ./... resolved against the enclosing module root.
// The exit status is 0 when all checks pass, 1 when any analyzer reports
// a finding, and 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"webcachesim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("wcvet", flag.ContinueOnError)
	fs.SetOutput(errw)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(errw, "wcvet:", err)
		return 2
	}
	pkgs, err := lint.NewLoader(root).Load(patterns)
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

	analyzers := lint.All()
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(errw, "wcvet:", err)
		return 2
	}
	for _, d := range diags {
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = rel
		}
		fmt.Fprintln(out, d)
	}
	if len(diags) > 0 {
		return 1
	}
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	fmt.Fprintf(out, "wcvet: %d packages clean (%s)\n", len(pkgs), strings.Join(names, ", "))
	return 0
}
