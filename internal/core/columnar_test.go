package core

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"webcachesim/internal/policy"
	"webcachesim/internal/trace"
)

// mixedWorkload builds a random workload of n requests over ~300 documents
// of every class, with sizes that vary between requests for one document.
func mixedWorkload(t *testing.T, seed int64, n int) *Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	exts := []string{"gif", "html", "mp3", "pdf", "cgi?q=1"}
	reqs := make([]*trace.Request, 0, n)
	for i := 0; i < n; i++ {
		id := int(float64(300) * rng.Float64() * rng.Float64())
		ext := exts[id%len(exts)]
		reqs = append(reqs, req(fmt.Sprintf("http://part.test/d%d.%s", id, ext), int64(100+rng.Intn(30_000))))
	}
	return build(t, 0, reqs...)
}

// TestColumnarWorkloadRoundTrip writes a workload as WCT3, loads it back
// through the mmap path, and requires every policy's simulation result to
// be bit-identical to a run over the original workload — the property
// that makes .wci3 a drop-in replay input.
func TestColumnarWorkloadRoundTrip(t *testing.T) {
	w := mixedWorkload(t, 17, 3000)
	path := filepath.Join(t.TempDir(), "trace.wci3")
	if err := w.WriteColumnar(path); err != nil {
		t.Fatal(err)
	}
	got, mapping, err := OpenColumnarWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mapping.Close() }()

	if got.NumRequests() != w.NumRequests() || got.NumDocs() != w.NumDocs() {
		t.Fatalf("counts = %d/%d, want %d/%d",
			got.NumRequests(), got.NumDocs(), w.NumRequests(), w.NumDocs())
	}
	if got.TotalBytes() != w.TotalBytes() || got.DistinctBytes() != w.DistinctBytes() {
		t.Errorf("byte stats diverge: %d/%d vs %d/%d",
			got.TotalBytes(), got.DistinctBytes(), w.TotalBytes(), w.DistinctBytes())
	}
	if got.ModifyThreshold() != w.ModifyThreshold() {
		t.Errorf("threshold = %v, want %v", got.ModifyThreshold(), w.ModifyThreshold())
	}
	for id := 0; id < w.NumDocs(); id++ {
		if got.Key(int32(id)) != w.Key(int32(id)) {
			t.Fatalf("doc %d key = %q, want %q", id, got.Key(int32(id)), w.Key(int32(id)))
		}
	}

	for _, f := range policy.StudyFactories() {
		cfg := Config{Capacity: w.DistinctBytes() / 2, Policy: f, WarmupFraction: 0.1}
		orig, err := NewSimulator(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := NewSimulator(got, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, b := orig.Run(w), loaded.Run(got)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: result over reloaded workload diverges\n got %+v\nwant %+v", f.Name, b, a)
		}
	}
}

// TestColumnarThresholdSurvives pins that a non-default modification
// threshold travels with the file rather than silently resetting.
func TestColumnarThresholdSurvives(t *testing.T) {
	w := build(t, 0.25,
		req("http://e.com/a.gif", 100),
		req("http://e.com/a.gif", 110), // 10% growth: modified at 0.05, not at 0.25
		req("http://e.com/b.html", 200),
	)
	path := filepath.Join(t.TempDir(), "t.wci3")
	if err := w.WriteColumnar(path); err != nil {
		t.Fatal(err)
	}
	got, mapping, err := OpenColumnarWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mapping.Close() }()
	if got.ModifyThreshold() != 0.25 {
		t.Errorf("threshold = %v, want 0.25", got.ModifyThreshold())
	}
	for i := 0; i < w.NumRequests(); i++ {
		if got.Event(i) != w.Event(i) {
			t.Errorf("event %d = %+v, want %+v", i, got.Event(i), w.Event(i))
		}
	}
}

// TestOpenColumnarWorkloadRejectsRecordStream pins the error a caller
// uses to fall back to the record formats.
func TestOpenColumnarWorkloadRejectsRecordStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wci")
	fw, err := trace.CreateFile(path, trace.FormatInterned)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Write(req("http://e.com/a.gif", 100)); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenColumnarWorkload(path); err == nil {
		t.Fatal("expected ErrNotColumnar for a WCT2 record stream")
	}
}

// TestWriteColumnarReportsFullDevice: every write to /dev/full fails with
// ENOSPC, so a workload written there must report an error — here the
// encoder's final flush is the first write to reach the device.
func TestWriteColumnarReportsFullDevice(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	if err := mixedWorkload(t, 3, 100).WriteColumnar("/dev/full"); err == nil {
		t.Fatal("WriteColumnar(/dev/full) = nil, want the device's error")
	}
}

// failingClose takes every write and fails its Close, as a file system
// may once the data is written.
type failingClose struct{ io.Writer }

var errClose = errors.New("close failed")

func (failingClose) Close() error { return errClose }

// TestWriteColumnarReportsCloseError: a close that fails after every
// write succeeded still fails the write — a WCT3 file whose last bytes
// may be missing is not reported written.
func TestWriteColumnarReportsCloseError(t *testing.T) {
	err := mixedWorkload(t, 3, 100).writeColumnar(failingClose{io.Discard}, "w.wci3")
	if !errors.Is(err, errClose) {
		t.Fatalf("writeColumnar = %v, want the Close error", err)
	}
}
