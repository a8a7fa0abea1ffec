package main

import (
	"path/filepath"
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
	tests := []struct {
		name string
		args []string
	}{
		{"no output", []string{"-requests", "10"}},
		{"bad profile", []string{"-profile", "x", "-o", "/tmp/x.log"}},
		{"bad path", []string{"-o", "/nonexistent-dir/x.log"}},
		{"columnar path", []string{"-requests", "10", "-o", filepath.Join(t.TempDir(), "x.wci3")}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Error("expected error")
			}
		})
	}
}
