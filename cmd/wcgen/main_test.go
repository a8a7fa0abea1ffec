package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webcachesim/internal/trace"
)

func TestRunGeneratesReadableTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.wct.gz")
	if err := run([]string{"-profile", "rtp", "-requests", "500", "-o", path}); err != nil {
		t.Fatal(err)
	}
	fr, err := trace.OpenFile(path, trace.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = fr.Close()
	}()
	reqs, err := trace.ReadAll(fr)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 500 {
		t.Errorf("trace has %d records, want 500", len(reqs))
	}
}

func TestRunSquidFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.log")
	if err := run([]string{"-requests", "100", "-o", path}); err != nil {
		t.Fatal(err)
	}
	fr, err := trace.OpenFile(path, trace.FormatSquid)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = fr.Close()
	}()
	reqs, err := trace.ReadAll(fr)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 100 {
		t.Errorf("trace has %d records, want 100", len(reqs))
	}
}

func TestRunErrors(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.log")
	tests := []struct {
		name string
		args []string
		want string // the error must name this flag; "" for any error
	}{
		{"no output", []string{"-requests", "10"}, ""},
		{"bad profile", []string{"-profile", "x", "-o", "/tmp/x.log"}, ""},
		{"bad path", []string{"-o", "/nonexistent-dir/x.log"}, ""},
		{"columnar path", []string{"-requests", "10", "-o", filepath.Join(t.TempDir(), "x.wci3")}, ""},
		// A nonsense count is an error, not a silent fall-back to the default.
		{"negative requests", []string{"-requests", "-5", "-o", out}, "requests"},
		{"negative scale", []string{"-scale", "-1", "-o", out}, "scale"},
		{"NaN scale", []string{"-scale", "NaN", "-o", out}, "scale"},
		{"infinite scale", []string{"-scale", "+Inf", "-o", out}, "scale"},
		{"overflowing scale", []string{"-scale", "1e300", "-o", out}, "scale"},
		{"negative clients", []string{"-clients", "-3", "-o", out}, "clients"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error = %v, want one naming %q", err, tt.want)
			}
		})
	}
}

// TestRefusedRunLeavesOutputAlone: the counts and the profile are checked
// before -o is opened, so a refused run neither creates the file nor
// truncates an existing trace.
func TestRefusedRunLeavesOutputAlone(t *testing.T) {
	dir := t.TempDir()
	fresh := filepath.Join(dir, "fresh.log")
	if err := run([]string{"-requests", "-5", "-o", fresh}); err == nil {
		t.Fatal("-requests -5 accepted")
	}
	if _, err := os.Stat(fresh); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a refused run left %s behind (stat: %v)", fresh, err)
	}

	existing := filepath.Join(dir, "existing.log")
	if err := run([]string{"-requests", "100", "-o", existing}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(existing)
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-requests", "-5", "-o", existing},
		{"-diurnal", "1.5", "-o", existing}, // refused by the profile check
	} {
		if err := run(args); err == nil {
			t.Fatalf("%v accepted", args)
		}
		after, err := os.ReadFile(existing)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("refused run %v changed %s: %d bytes, were %d", args, existing, len(after), len(before))
		}
	}
}
