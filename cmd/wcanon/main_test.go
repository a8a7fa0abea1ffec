package main

import (
	"path/filepath"
	"strings"
	"testing"

	"webcachesim/internal/analyze"
	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/synth"
	"webcachesim/internal/trace"
)

func writeTestTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.wct")
	w, err := trace.CreateFile(path, trace.FormatInterned)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synth.GenerateTo(w, synth.DFNProfile(),
		synth.Options{Seed: 3, Requests: 5000, Clients: 50}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func readBack(t *testing.T, path string) []*trace.Request {
	t.Helper()
	r, err := trace.OpenFile(path, trace.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = r.Close()
	}()
	reqs, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestAnonymizePreservesWorkloadShape(t *testing.T) {
	in := writeTestTrace(t)
	out := filepath.Join(t.TempDir(), "out.wct")
	var sb strings.Builder
	if err := run([]string{"-i", in, "-o", out, "-salt", "s3"}, &sb); err != nil {
		t.Fatal(err)
	}
	orig := readBack(t, in)
	anon := readBack(t, out)
	if len(anon) != len(orig) {
		t.Fatalf("anonymized %d records, want %d", len(anon), len(orig))
	}

	origC, anonC := characterize(t, orig, "orig"), characterize(t, anon, "anon")
	// Identity structure preserved exactly.
	if anonC.DistinctDocs != origC.DistinctDocs {
		t.Errorf("distinct docs %d vs %d", anonC.DistinctDocs, origC.DistinctDocs)
	}
	if a, o := distinctClients(anon), distinctClients(orig); a != o {
		t.Errorf("distinct clients %d vs %d", a, o)
	}
	if anonC.ReqBytes != origC.ReqBytes {
		t.Errorf("requested bytes %d vs %d", anonC.ReqBytes, origC.ReqBytes)
	}
	// Classification preserved per class.
	for _, cl := range doctype.Classes {
		if anonC.Classes[cl].Requests != origC.Classes[cl].Requests {
			t.Errorf("%v: requests %d vs %d", cl,
				anonC.Classes[cl].Requests, origC.Classes[cl].Requests)
		}
	}
	// No original URL survives.
	for _, r := range anon {
		if strings.Contains(r.URL, "synth.example") {
			t.Fatalf("original URL leaked: %q", r.URL)
		}
		if !strings.HasPrefix(r.URL, "http://anon.invalid/") {
			t.Fatalf("unexpected anonymized URL %q", r.URL)
		}
		if r.Client != "" && !strings.HasPrefix(r.Client, "c") {
			t.Fatalf("client leaked: %q", r.Client)
		}
	}
}

func characterize(t *testing.T, reqs []*trace.Request, name string) *analyze.Characterization {
	t.Helper()
	w, err := core.BuildWorkload(trace.NewSliceReader(reqs), 0)
	if err != nil {
		t.Fatal(err)
	}
	return analyze.Characterize(w, name)
}

func distinctClients(reqs []*trace.Request) int {
	seen := make(map[string]bool)
	for _, r := range reqs {
		seen[r.Client] = true
	}
	return len(seen)
}

func TestAnonymizeStableMapping(t *testing.T) {
	in := writeTestTrace(t)
	out1 := filepath.Join(t.TempDir(), "a.wct")
	out2 := filepath.Join(t.TempDir(), "b.wct")
	var sb strings.Builder
	if err := run([]string{"-i", in, "-o", out1, "-salt", "x"}, &sb); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-i", in, "-o", out2, "-salt", "x"}, &sb); err != nil {
		t.Fatal(err)
	}
	a, b := readBack(t, out1), readBack(t, out2)
	for i := range a {
		if a[i].URL != b[i].URL {
			t.Fatal("same salt produced different mappings")
		}
	}
	// A different salt must produce a different mapping.
	out3 := filepath.Join(t.TempDir(), "c.wct")
	if err := run([]string{"-i", in, "-o", out3, "-salt", "y"}, &sb); err != nil {
		t.Fatal(err)
	}
	c := readBack(t, out3)
	same := 0
	for i := range a {
		if a[i].URL == c[i].URL {
			same++
		}
	}
	if same == len(a) {
		t.Error("different salts produced identical mappings")
	}
}

func TestAnonymizeKeepHost(t *testing.T) {
	in := writeTestTrace(t)
	out := filepath.Join(t.TempDir(), "kh.wct")
	var sb strings.Builder
	if err := run([]string{"-i", in, "-o", out, "-keep-host"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, r := range readBack(t, out) {
		if !strings.HasPrefix(r.URL, "http://DFN.synth.example/") {
			t.Fatalf("host not preserved: %q", r.URL)
		}
		if strings.Contains(r.URL, "/image/") || strings.Contains(r.URL, "/html/") {
			t.Fatalf("path leaked: %q", r.URL)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{}, &sb); err == nil {
		t.Error("missing flags accepted")
	}
	if err := run([]string{"-i", "/nonexistent", "-o", "/tmp/x"}, &sb); err == nil {
		t.Error("missing input accepted")
	}
}
