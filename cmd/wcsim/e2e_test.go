package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the e2e golden file")

// goRunErr executes one of the sibling commands through `go run`, from
// the module root, and returns its combined output and exit error.
func goRunErr(pkg string, args ...string) (string, error) {
	cmd := exec.Command("go", append([]string{"run", "webcachesim/cmd/" + pkg}, args...)...)
	cmd.Dir = filepath.Join("..", "..")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// goRun is goRunErr for a command that must succeed.
func goRun(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	out, err := goRunErr(pkg, args...)
	if err != nil {
		t.Fatalf("go run %s %v: %v\n%s", pkg, args, err, out)
	}
	return out
}

// TestEndToEndInternedRoundTrip drives the full toolchain over the interned
// (WCT2) trace format: wcgen writes an interned trace, wcsim (in process)
// sweeps it and writes a run journal, and wcreport summarizes the journal.
// The simulation table is pinned against a golden file — regenerate with
// `go test ./cmd/wcsim -run EndToEnd -update`.
func TestEndToEndInternedRoundTrip(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not in PATH")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.wci")

	genOut := goRun(t, "wcgen", "-profile", "dfn", "-requests", "3000", "-seed", "7",
		"-o", tracePath)
	if !strings.Contains(genOut, "wrote 3000") {
		t.Fatalf("wcgen output: %s", genOut)
	}
	header := make([]byte, 4)
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(header); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if !bytes.Equal(header, []byte("WCT2")) {
		t.Fatalf("trace header = %q, want WCT2 interned magic", header)
	}

	journalPath := filepath.Join(dir, "run.jsonl")
	var sb strings.Builder
	err = run([]string{"-trace", tracePath, "-policies", "lru,gdstar:p",
		"-sizes", "1MB,4MB", "-csv", "-journal", journalPath}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The header line embeds the temp path; golden-compare everything after
	// it (the deterministic result table).
	_, table, ok := strings.Cut(out, "\n\n")
	if !ok {
		t.Fatalf("unexpected wcsim output shape:\n%s", out)
	}
	goldenPath := filepath.Join("testdata", "e2e_interned.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(table), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if table != string(golden) {
		t.Errorf("simulation table drifted from golden:\n got:\n%s\nwant:\n%s", table, golden)
	}

	reportOut := goRun(t, "wcreport", "-journal", journalPath)
	for _, want := range []string{"2 policies × 2 capacities", "sweep total: 4 cells"} {
		if !strings.Contains(reportOut, want) {
			t.Errorf("wcreport journal summary missing %q:\n%s", want, reportOut)
		}
	}
}

// TestUnparseableTraceIsAnError: a file none of whose lines decode — an
// origin-server CLF log, or plain garbage — must make every trace-reading
// command exit non-zero naming the file, not report an empty workload.
func TestUnparseableTraceIsAnError(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not in PATH")
	}
	dir := t.TempDir()
	fixtures := map[string]string{
		"clf.log": `10.0.0.1 - - [10/Oct/2000:13:55:36 -0700] "GET /a.gif HTTP/1.0" 200 2326
10.0.0.2 - - [10/Oct/2000:13:55:37 -0700] "GET /b.html HTTP/1.0" 200 512
`,
		"garbage.log": "not a trace\nat all\nreally\n",
	}
	fleet := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(fleet, []byte(`{"nodes":[{"name":"n1","url":"http://127.0.0.1:1","capacity":"1MB"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, body := range fixtures {
		path, err := filepath.Abs(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		want := path + ": no requests parsed (" + strconv.Itoa(strings.Count(body, "\n")) + " malformed lines)"
		for _, tc := range []struct {
			pkg  string
			args []string
		}{
			{"wcsim", []string{"-trace", path}},
			{"wcstat", []string{path}},
			{"wcstat", []string{"-o", filepath.Join(dir, "out.wci3"), path}},
			{"wcload", []string{"-topology", fleet, "-trace", path, "-offline"}},
		} {
			out, err := goRunErr(tc.pkg, tc.args...)
			if err == nil {
				t.Errorf("%s %s: exit 0, want a failure\n%s", tc.pkg, name, out)
			}
			if !strings.Contains(out, want) {
				t.Errorf("%s %s: output lacks %q:\n%s", tc.pkg, name, want, out)
			}
		}
	}
}
