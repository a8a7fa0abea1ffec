package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webcachesim/internal/core"
	"webcachesim/internal/experiment"
	"webcachesim/internal/policy"
	"webcachesim/internal/trace"
)

// fastArgs keeps CLI tests quick: tiny workload, few sizes.
func fastArgs(extra ...string) []string {
	return append([]string{"-scale", "0.02", "-size-pcts", "1,4"}, extra...)
}

func TestRunSingleExperiment(t *testing.T) {
	var sb strings.Builder
	// Shape checks can fail at this tiny scale; the command then returns
	// an error but still renders the report. Accept either outcome and
	// check the rendering.
	err := run(fastArgs("-exp", "table2"), &sb)
	out := sb.String()
	if !strings.Contains(out, "Table 2") {
		t.Errorf("output missing table (err=%v):\n%s", err, out)
	}
	if !strings.Contains(out, "[PASS]") && !strings.Contains(out, "[FAIL]") {
		t.Error("no check verdicts rendered")
	}
}

func TestRunChecksOnly(t *testing.T) {
	var sb strings.Builder
	_ = run(fastArgs("-exp", "table2", "-checks-only"), &sb)
	out := sb.String()
	if strings.Contains(out, "% of Distinct Documents") {
		t.Error("-checks-only rendered tables")
	}
	if !strings.Contains(out, "HTML+images") {
		t.Error("verdicts missing")
	}
}

func TestRunJSON(t *testing.T) {
	var sb strings.Builder
	_ = run(fastArgs("-exp", "table1", "-json"), &sb)
	// Each table travels once, as data; no pre-rendered text, no figures.
	var outs []struct {
		ID     experiment.ID
		Title  string
		Tables []struct {
			Title  string
			Header []string
			Rows   [][]string
		}
		Checks []experiment.ShapeCheck
		Notes  []string
	}
	dec := json.NewDecoder(strings.NewReader(sb.String()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&outs); err != nil {
		t.Fatalf("-json output did not parse: %v\n%s", err, sb.String())
	}
	if len(outs) != 1 || outs[0].ID != experiment.Table1 || len(outs[0].Tables) != 1 {
		t.Fatalf("unexpected JSON payload: %+v", outs)
	}
	table := outs[0].Tables[0]
	if !strings.HasPrefix(table.Title, "Table 1") || len(table.Header) != 3 || len(table.Rows) != 5 ||
		table.Rows[1][0] != "Distinct Documents" {
		t.Errorf("table 1 did not travel as {title, header, rows}: %+v", table)
	}
	if len(outs[0].Checks) != 2 || len(outs[0].Notes) == 0 {
		t.Errorf("checks/notes missing: %+v", outs[0])
	}
}

// TestRunSVGDir: -svg-dir writes one SVG file per figure.
func TestRunSVGDir(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	_ = run(fastArgs("-exp", "figure2", "-svg-dir", dir), &sb)
	files, err := filepath.Glob(filepath.Join(dir, "figure2-*.svg"))
	if err != nil || len(files) != 8 {
		t.Fatalf("-svg-dir wrote %d files (%v), want 8", len(files), err)
	}
	svg, err := os.ReadFile(files[0])
	if err != nil || !strings.HasPrefix(string(svg), "<svg") {
		t.Errorf("%s is not an SVG document (%v)", files[0], err)
	}
}

func TestRunBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "table9"}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
	for _, args := range [][]string{
		{"-size-pcts", "a,b"},
		{"-size-pcts", "nan,-3,0"},
		{"-size-pcts", "1,0"},
		{"-size-pcts", "-2"},
		{"-size-pcts", "NaN"},
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-scale", "NaN"},
		{"-sizes", "1,4"},
		{"-md"},
		{"-parallelism", "2"},
		{"-plots"},
	} {
		if err := run(append(args, "-exp", "table1"), &sb); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// writeJournal produces a genuine run journal by sweeping a small
// synthetic workload, so the summary test exercises the real schema.
func writeJournal(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	reqs := make([]*trace.Request, 0, 2000)
	for i := 0; i < 2000; i++ {
		id := rng.Intn(300)
		size := int64(500 + rng.Intn(5000))
		reqs = append(reqs, &trace.Request{
			URL:          fmt.Sprintf("http://j.test/d%d.gif", id),
			Status:       200,
			TransferSize: size,
			DocSize:      size,
		})
	}
	w, err := core.BuildWorkload(trace.NewSliceReader(reqs), 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Sweep(w, core.SweepConfig{
		Policies:   policy.StudyFactories()[:2],
		Capacities: []int64{100_000, 400_000},
		Journal:    f,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunJournalSummary(t *testing.T) {
	path := writeJournal(t)
	var sb strings.Builder
	if err := run([]string{"-journal", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Run journal summary", "kreq/s", "LRU", "sweep total: 4 cells"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJournalRejectsMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-journal", path}, &sb); err == nil {
		t.Fatal("malformed journal did not error")
	}
	if err := run([]string{"-journal", filepath.Join(t.TempDir(), "missing.jsonl")}, &sb); err == nil {
		t.Fatal("missing journal did not error")
	}
}
