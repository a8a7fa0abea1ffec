package main

import (
	"path/filepath"
	"strings"
	"testing"

	"webcachesim/internal/synth"
	"webcachesim/internal/trace"
)

func writeTestTrace(t *testing.T, format trace.Format) string {
	t.Helper()
	name := "trace.log"
	if format == trace.FormatInterned {
		name = "trace.wct"
	}
	path := filepath.Join(t.TempDir(), name)
	w, err := trace.CreateFile(path, format)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synth.GenerateTo(w, synth.RTPProfile(), synth.Options{Seed: 2, Requests: 3000}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunText(t *testing.T) {
	path := writeTestTrace(t, trace.FormatInterned)
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Trace properties", "Distinct Documents", "Total Requests",
		"% of Requested Data", "Popularity α", "Multi Media",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunSquidWithFilterCounters(t *testing.T) {
	path := writeTestTrace(t, trace.FormatSquid)
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Filtered Out (dynamic URL)") {
		t.Error("filter counters missing")
	}
}

func TestRunRawSkipsFilter(t *testing.T) {
	path := writeTestTrace(t, trace.FormatSquid)
	var sb strings.Builder
	if err := run([]string{"-raw", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "Filtered Out") {
		t.Error("-raw should omit filter counters")
	}
}

func TestRunCSVMode(t *testing.T) {
	path := writeTestTrace(t, trace.FormatInterned)
	var sb strings.Builder
	if err := run([]string{"-csv", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), ",Images,HTML,") {
		t.Errorf("CSV output missing header:\n%s", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{}, &sb); err == nil {
		t.Error("no args should fail")
	}
	if err := run([]string{"/nonexistent"}, &sb); err == nil {
		t.Error("missing file should fail")
	}
}
