package trace

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func writeTraceFile(t *testing.T, path string, format Format) {
	t.Helper()
	w, err := CreateFile(path, format)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRequests() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readTraceFile(t *testing.T, path string, format Format) []*Request {
	t.Helper()
	r, err := OpenFile(path, format)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	reqs, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestFileRoundTrips(t *testing.T) {
	dir := t.TempDir()
	tests := []struct {
		name     string
		file     string
		format   Format
		interned bool // the file must read back through the WCT2 decoder
	}{
		{"squid plain", "trace.log", FormatSquid, false},
		{"squid gzip", "trace.log.gz", FormatSquid, false},
		{"binary plain", "trace.wct", FormatInterned, true},
		{"binary gzip", "trace.wct.gz", FormatInterned, true},
		{"auto by extension wct", "auto.wct", FormatAuto, true},
		{"auto by extension wct gzip", "auto.wct.gz", FormatAuto, true},
		{"auto by extension bin", "auto.bin", FormatAuto, true},
		{"auto by extension log", "auto.log", FormatAuto, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(dir, tt.file)
			writeTraceFile(t, path, tt.format)
			// Read back with auto-detection regardless of write format.
			r, err := OpenFile(path, FormatAuto)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := r.Reader.(*InternedReader); ok != tt.interned {
				t.Errorf("decoder is %T, want interned = %v", r.Reader, tt.interned)
			}
			reqs, err := ReadAll(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			if len(reqs) != 3 {
				t.Fatalf("read %d records, want 3", len(reqs))
			}
			if reqs[0].URL != "http://e.com/a.gif" {
				t.Errorf("first URL = %q", reqs[0].URL)
			}
		})
	}
}

func TestOpenFileMissing(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "nope.log"), FormatAuto); err == nil {
		t.Error("opening missing file should fail")
	}
}

func TestCreateFileBadFormat(t *testing.T) {
	if _, err := CreateFile(filepath.Join(t.TempDir(), "x.log"), Format("weird")); err == nil {
		t.Error("unknown format should fail")
	}
}

func TestOpenFileBadFormat(t *testing.T) {
	dir := t.TempDir()
	squid := filepath.Join(dir, "t.log")
	writeTraceFile(t, squid, FormatSquid)
	// A WCT1 header followed by bytes the Squid parser would skip as one
	// malformed line: the file must be refused by name, not read as text.
	wct1 := filepath.Join(dir, "old.wct")
	if err := os.WriteFile(wct1, []byte("WCT1\x00\x12http://e.com/a.gif\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name, path string
		format     Format
		wantErr    string
	}{
		{"unknown format", squid, Format("weird"), "unsupported read format"},
		{"removed WCT1 magic", wct1, FormatAuto, "WCT1 format removed"},
	} {
		r, err := OpenFile(tt.path, tt.format)
		if err == nil {
			_ = r.Close()
			t.Errorf("%s: OpenFile succeeded, want error", tt.name)
			continue
		}
		if !strings.Contains(err.Error(), tt.wantErr) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: err = %q, want one line containing %q", tt.name, err, tt.wantErr)
		}
	}
}

func TestBinaryFileDetectedDespiteLogExtension(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mislabeled.log")
	writeTraceFile(t, path, FormatInterned)
	reqs := readTraceFile(t, path, FormatAuto)
	if len(reqs) != 3 {
		t.Fatalf("read %d records, want 3 (magic sniffing failed)", len(reqs))
	}
	// DocSize survives only in the binary format.
	if reqs[2].DocSize != 4_000_000 {
		t.Errorf("DocSize = %d, want 4000000", reqs[2].DocSize)
	}
}

// TestFileReaderCloseBeforeEOF: abandoning a gzip trace mid-stream must
// return from Close and leave no goroutine behind.
func TestFileReaderCloseBeforeEOF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.wci.gz")
	writeTraceFile(t, path, FormatAuto)
	before := runtime.NumGoroutine()
	r, err := OpenFile(path, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before open, %d after close", before, after)
	}
}
