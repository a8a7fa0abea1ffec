// Package linttest runs lint analyzers over source fixtures, in the style
// of golang.org/x/tools/go/analysis/analysistest: fixture packages live in
// a GOPATH-like tree (root/<import path>/*.go) and annotate the lines an
// analyzer must flag with trailing comments of the form
//
//	_ = w.Flush() // want "no adjacent justification comment"
//
// where the quoted text is a regular expression matched against the
// diagnostic message. A fixture line without a matching diagnostic, or a
// diagnostic without a matching want, fails the test.
package linttest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"webcachesim/internal/lint"
)

// expectation is one // want annotation.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads each fixture package under root and checks the analyzer's
// diagnostics against the fixtures' want annotations.
func Run(t *testing.T, root string, a *lint.Analyzer, pkgPaths ...string) {
	t.Helper()
	moduleRoot, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := lint.NewLoader(moduleRoot)
	for _, path := range pkgPaths {
		pkg, err := loader.LoadFixture(root, path)
		if err != nil {
			t.Fatalf("load fixture %s: %v", path, err)
		}
		diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{a})
		if err != nil {
			t.Fatalf("run %s on %s: %v", a.Name, path, err)
		}
		wants, err := parseWants(pkg)
		if err != nil {
			t.Fatalf("fixture %s: %v", path, err)
		}
		for _, d := range diags {
			if w := match(wants, d); w == nil {
				t.Errorf("%s: unexpected diagnostic: %s", path, d)
			}
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s: no diagnostic at %s:%d matching %q",
					path, w.file, w.line, w.pattern)
			}
		}
	}
}

func match(wants []*expectation, d lint.Diagnostic) *expectation {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line &&
			w.pattern.MatchString(d.Message) {
			w.matched = true
			return w
		}
	}
	return nil
}

// parseWants extracts the want annotations from every comment in the
// fixture package.
func parseWants(pkg *lint.Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				pats, err := parsePatterns(text)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", pos, err)
				}
				for _, p := range pats {
					re, err := regexp.Compile(p)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", pos, err)
					}
					out = append(out, &expectation{
						file:    pos.Filename,
						line:    pos.Line,
						pattern: re,
					})
				}
			}
		}
	}
	return out, nil
}

// parsePatterns splits a want payload into its quoted or backquoted
// regular expressions.
func parsePatterns(s string) ([]string, error) {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out, nil
		}
		switch s[0] {
		case '"', '`':
			end := strings.IndexByte(s[1:], s[0])
			if end < 0 {
				return nil, fmt.Errorf("unterminated want pattern %q", s)
			}
			raw := s[:end+2]
			pat, err := strconv.Unquote(raw)
			if err != nil {
				return nil, fmt.Errorf("bad want pattern %s: %w", raw, err)
			}
			out = append(out, pat)
			s = s[end+2:]
		default:
			return nil, fmt.Errorf("want pattern must be quoted, got %q", s)
		}
	}
}
