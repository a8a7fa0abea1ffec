package main

import (
	"flag"
	"io"
	"os"
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
	g, err := synth.NewGenerator(synth.RTPProfile(), synth.Options{Seed: 2, Requests: 3000})
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.CreateFile(path, format)
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

// TestColumnarMatchesRecordStream: the .wci3 that -o writes prints the
// same class-mix and locality tables as the .wci it was built from; only
// the totals differ, by the filter and client rows the image does not
// record.
func TestColumnarMatchesRecordStream(t *testing.T) {
	wci := writeTestTrace(t, trace.FormatInterned)
	wci3 := filepath.Join(t.TempDir(), "trace.wci3")
	var converted strings.Builder
	if err := run([]string{"-o", wci3, wci}, &converted); err != nil {
		t.Fatal(err)
	}
	outputs := make(map[string]string)
	for _, path := range []string{wci, wci3} {
		var sb strings.Builder
		if err := run([]string{path}, &sb); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		outputs[path] = sb.String()
	}
	if converted.String() != outputs[wci] {
		t.Errorf("-o changed what is printed:\n%s\nwant:\n%s", converted.String(), outputs[wci])
	}
	if !strings.Contains(outputs[wci], "Filtered Out") || strings.Contains(outputs[wci3], "Filtered Out") {
		t.Errorf("filter rows: want them for the .wci only")
	}
	// The totals table comes first; the class-mix and locality tables follow.
	_, fromWCI, _ := strings.Cut(outputs[wci], "\n\n")
	_, fromWCI3, _ := strings.Cut(outputs[wci3], "\n\n")
	if fromWCI == "" || fromWCI != fromWCI3 {
		t.Errorf("tables differ:\n.wci:\n%s\n.wci3:\n%s", fromWCI, fromWCI3)
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
	dir := t.TempDir()
	wci := writeTestTrace(t, trace.FormatInterned)
	wci3 := filepath.Join(dir, "y.wci3")
	if err := run([]string{"-o", wci3, wci}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"no args":              {},
		"missing file":         {"/nonexistent"},
		"-hist":                {"-hist", wci},
		"-o with two traces":   {"-o", filepath.Join(dir, "z.wci3"), wci, wci},
		"-o not .wci3":         {"-o", filepath.Join(dir, "z.log"), wci},
		"-o from a WCT3 image": {"-o", filepath.Join(dir, "z.wci3"), wci3},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "z.wci3")); !os.IsNotExist(err) {
		t.Errorf("a refused -o left an image behind (stat: %v)", err)
	}
}

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGolden pins wcstat's three tables byte for byte, as text and as CSV,
// on a fixed synthetic trace (wcgen -profile rtp -seed 2 -requests 3000).
// The title line embeds the temp path, which is replaced before comparing.
// Regenerate with `go test ./cmd/wcstat -run Golden -update`.
func TestGolden(t *testing.T) {
	path := writeTestTrace(t, trace.FormatInterned)
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"stat.golden", []string{path}},
		{"stat_csv.golden", []string{"-csv", path}},
	} {
		var sb strings.Builder
		if err := run(tc.args, &sb); err != nil {
			t.Fatal(err)
		}
		got := strings.ReplaceAll(sb.String(), path, "<trace>")
		goldenPath := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if got != string(want) {
			t.Errorf("%s drifted from golden:\n got:\n%s\nwant:\n%s", tc.golden, got, want)
		}
	}
}
