package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"webcachesim/internal/core"
	"webcachesim/internal/synth"
	"webcachesim/internal/trace"
)

// writeTestTrace generates a small interned trace for CLI tests.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.wct")
	g, err := synth.NewGenerator(synth.DFNProfile(), synth.Options{Seed: 1, Requests: 4000})
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.CreateFile(path, trace.FormatInterned)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAll(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeTinyTrace writes three documents totalling 180 distinct bytes: half
// a percent of that truncates to a capacity of zero.
func writeTinyTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.wct")
	w, err := trace.CreateFile(path, trace.FormatInterned)
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range []int64{50, 60, 70, 50, 60} {
		req := &trace.Request{UnixMillis: int64(i), URL: "http://t.test/" + string(rune('a'+i%3)) + ".gif",
			Method: "GET", Status: 200, TransferSize: size, DocSize: size}
		if err := w.Write(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBasic(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"size-pcts", []string{"-trace", writeTestTrace(t), "-policies", "lru,gdstar:p", "-size-pcts", "1,4"}},
		// The default grid on a trace this small used to compute capacity 0
		// and die in core; it takes the one-byte floor -size-pcts takes.
		{"default grid, tiny trace", []string{"-trace", writeTinyTrace(t), "-policies", "lru,gdstar:p"}},
	} {
		var sb strings.Builder
		if err := run(tc.args, &sb); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		out := sb.String()
		for _, want := range []string{"Simulation results", "LRU", "GD*(P)", "Evictions"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output missing %q:\n%s", tc.name, want, out)
			}
		}
	}
}

// TestRunByClassAndSVGDir: -svg-dir writes the overall hit-rate and
// byte-hit-rate curves, one series per policy, beside the text tables.
func TestRunByClassAndSVGDir(t *testing.T) {
	path := writeTestTrace(t)
	dir := filepath.Join(t.TempDir(), "figs")
	var sb strings.Builder
	err := run([]string{"-trace", path, "-policies", "lru,gdstar:p", "-sizes", "1MB,4MB", "-by-class", "-svg-dir", dir}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Images", "Multi Media"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.svg"))
	if err != nil || len(files) != 2 {
		t.Fatalf("-svg-dir wrote %v (%v), want overall-01.svg and overall-02.svg", files, err)
	}
	for i, title := range []string{"Overall hit rate vs cache size", "Overall byte hit rate vs cache size"} {
		svg, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("overall-%02d.svg", i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(svg), "<svg") || !strings.Contains(string(svg), title) ||
			strings.Count(string(svg), "<polyline") != 2 {
			t.Errorf("overall-%02d.svg is not the %q figure with two curves", i+1, title)
		}
	}
}

// TestRunCSV also pins the Cache (MB) cells: caches under a megabyte keep
// their size instead of all printing 0.
func TestRunCSV(t *testing.T) {
	path := writeTestTrace(t)
	var sb strings.Builder
	if err := run([]string{"-trace", path, "-policies", "lru", "-sizes", "128KB,256KB,2MB", "-csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Policy,Cache (MB),HR,BHR") {
		t.Errorf("CSV header missing:\n%s", sb.String())
	}
	var got []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Split(line, ","); f[0] == "LRU" {
			got = append(got, f[1])
		}
	}
	if want := []string{"0.125", "0.25", "2"}; !slices.Equal(got, want) {
		t.Errorf("Cache (MB) cells = %q, want %q", got, want)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTestTrace(t)
	var sb strings.Builder
	tests := []struct {
		name string
		args []string
	}{
		{"no trace", []string{}},
		{"missing file", []string{"-trace", "/nonexistent"}},
		{"bad policy", []string{"-trace", path, "-policies", "nope"}},
		{"beta option", []string{"-trace", path, "-policies", "gdstar:p:beta=0.8"}},
		{"window option", []string{"-trace", path, "-admissions", "tinylfu:window=1000"}},
		{"parallelism", []string{"-trace", path, "-parallelism", "2"}},
		{"ASCII plot", []string{"-trace", path, "-plot"}},
		{"bad size", []string{"-trace", path, "-sizes", "xyz"}},
		{"conflicting sizes", []string{"-trace", path, "-sizes", "1MB", "-size-pcts", "1"}},
		{"bad pct", []string{"-trace", path, "-size-pcts", "abc"}},
		{"NaN pct", []string{"-trace", path, "-size-pcts", "NaN"}},
		{"negative pct", []string{"-trace", path, "-size-pcts", "1,-5"}},
		{"duplicate sizes", []string{"-trace", path, "-sizes", "8MB,8MB"}},
		{"NaN warmup", []string{"-trace", path, "-warmup", "NaN"}},
		{"negative warmup", []string{"-trace", path, "-warmup", "-0.1"}},
		{"whole-trace warmup", []string{"-trace", path, "-warmup", "1"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args, &sb); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestRunNoWarmup: -warmup 0 measures from the first request, so every
// request of the trace lands in exactly one per-class Requests cell.
func TestRunNoWarmup(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-trace", writeTestTrace(t), "-policies", "lru", "-sizes", "2MB",
		"-warmup", "0", "-by-class", "-csv"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	header, tables, _ := strings.Cut(sb.String(), "\n\n")
	var want int64
	if _, after, ok := strings.Cut(header, " — "); !ok {
		t.Fatalf("no request count in %q", header)
	} else if _, err := fmt.Sscanf(after, "%d requests", &want); err != nil {
		t.Fatalf("no request count in %q: %v", header, err)
	}
	var sum int64
	for _, line := range strings.Split(tables, "\n") {
		// Class rows are Policy,Cache (MB),HR,BHR,Requests; the overall
		// row has six cells.
		if cells := strings.Split(line, ","); len(cells) == 5 && cells[0] == "LRU" {
			n, err := strconv.ParseInt(cells[4], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			sum += n
		}
	}
	if sum != want {
		t.Errorf("per-class requests sum to %d, want all %d", sum, want)
	}
}

func TestParsePolicies(t *testing.T) {
	fs, err := parsePolicies("lru,lfuda,typeaware+gds:p")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 || fs[2].Name != "TA[GDS(P)]" {
		t.Errorf("factories = %v", fs)
	}
	if _, err := parsePolicies("bogus"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestRunJournal(t *testing.T) {
	path := writeTestTrace(t)
	journalPath := filepath.Join(t.TempDir(), "run.jsonl")
	var sb strings.Builder
	err := run([]string{"-trace", path, "-policies", "lru,gdstar:p",
		"-size-pcts", "1,4", "-journal", journalPath}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	recs, err := core.ReadJournal(f)
	if err != nil {
		t.Fatalf("journal does not parse: %v", err)
	}
	if recs[0].Event != core.JournalSweepStart ||
		recs[len(recs)-1].Event != core.JournalSweepEnd {
		t.Errorf("journal not bracketed by sweep_start/sweep_end")
	}
	ends := 0
	for _, r := range recs {
		if r.Event == core.JournalRunEnd {
			ends++
		}
	}
	if ends != 4 { // 2 policies × 2 capacities
		t.Errorf("run_end records = %d, want 4", ends)
	}
}

func TestRunJournalBadPath(t *testing.T) {
	path := writeTestTrace(t)
	var sb strings.Builder
	err := run([]string{"-trace", path, "-size-pcts", "1",
		"-journal", filepath.Join(t.TempDir(), "missing", "run.jsonl")}, &sb)
	if err == nil {
		t.Fatal("uncreatable journal path did not error")
	}
}
