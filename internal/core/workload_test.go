package core

import (
	"testing"

	"webcachesim/internal/doctype"
	"webcachesim/internal/trace"
)

// req builds a minimal cacheable request for workload tests. The recorded
// DocSize makes the size a known full size (knownFull in the modification
// rule).
func req(url string, size int64) *trace.Request {
	return &trace.Request{URL: url, Status: 200, TransferSize: size, DocSize: size}
}

// xfer builds a request that records only the bytes transferred, as real
// proxy logs do: the document size must be inferred from history.
func xfer(url string, transfer int64) *trace.Request {
	return &trace.Request{URL: url, Status: 200, TransferSize: transfer}
}

func build(t testing.TB, threshold float64, reqs ...*trace.Request) *Workload {
	t.Helper()
	w, err := BuildWorkload(trace.NewSliceReader(reqs), threshold)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildWorkloadIDsAndClasses(t *testing.T) {
	w := build(t, 0,
		req("http://e.com/a.gif", 100),
		req("http://e.com/b.html", 200),
		req("http://e.com/a.gif", 100),
	)
	if w.NumDocs() != 2 {
		t.Fatalf("NumDocs = %d, want 2", w.NumDocs())
	}
	if w.NumRequests() != 3 {
		t.Fatalf("NumRequests = %d, want 3", w.NumRequests())
	}
	if w.Event(0).DocID != w.Event(2).DocID {
		t.Error("same URL mapped to different IDs")
	}
	if w.Event(0).DocID == w.Event(1).DocID {
		t.Error("different URLs shared an ID")
	}
	if w.Event(0).Class != doctype.Image || w.Event(1).Class != doctype.HTML {
		t.Errorf("classes = %v, %v", w.Event(0).Class, w.Event(1).Class)
	}
	if w.TotalBytes() != 400 {
		t.Errorf("TotalBytes = %d, want 400", w.TotalBytes())
	}
	if w.DistinctBytes() != 300 {
		t.Errorf("DistinctBytes = %d, want 300", w.DistinctBytes())
	}
	if got := w.Key(w.Event(1).DocID); got != "http://e.com/b.html" {
		t.Errorf("Key = %q", got)
	}
	if got := w.DocClass(w.Event(0).DocID); got != doctype.Image {
		t.Errorf("DocClass = %v", got)
	}
	if got := w.FinalSize(w.Event(1).DocID); got != 200 {
		t.Errorf("FinalSize = %d", got)
	}
}

// TestBuildWorkloadDoesNotMutateRequests pins the tentpole property: the
// ingest pass resolves classes eagerly and leaves the trace's Request
// structs untouched, so one []*trace.Request can feed many concurrent
// builds (see sweep_race_test.go for the -race pin).
func TestBuildWorkloadDoesNotMutateRequests(t *testing.T) {
	r := &trace.Request{URL: "http://e.com/a.gif", Status: 200, TransferSize: 10, DocSize: 10}
	before := *r
	w := build(t, 0, r)
	if *r != before {
		t.Errorf("BuildWorkload mutated the request: %+v -> %+v", before, *r)
	}
	if w.Event(0).Class != doctype.Image {
		t.Errorf("class = %v, want Image", w.Event(0).Class)
	}
}

func TestBuildWorkloadModificationRule(t *testing.T) {
	// 100 -> 102: 2% change => modification.
	// 102 -> 50: 51% change => interrupted transfer, size stays 102.
	// 50 -> 102 (same as recorded): unchanged.
	w := build(t, 0,
		req("http://e.com/a.html", 100),
		req("http://e.com/a.html", 102),
		req("http://e.com/a.html", 50),
		req("http://e.com/a.html", 102),
	)
	wantModified := []bool{false, true, false, false}
	wantDocSize := []int64{100, 102, 102, 102}
	for i := 0; i < w.NumRequests(); i++ {
		ev := w.Event(i)
		if ev.Modified != wantModified[i] {
			t.Errorf("event %d Modified = %v, want %v", i, ev.Modified, wantModified[i])
		}
		if ev.DocSize != wantDocSize[i] {
			t.Errorf("event %d DocSize = %d, want %d", i, ev.DocSize, wantDocSize[i])
		}
	}
}

func TestBuildWorkloadGrowthAfterInterruption(t *testing.T) {
	// First transfer interrupted (small), then the full document arrives:
	// ≥5% growth is an interruption correction, not a modification, and
	// the recorded size grows.
	w := build(t, 0,
		req("http://e.com/movie.mpg", 1000),
		req("http://e.com/movie.mpg", 900_000),
	)
	if w.Event(1).Modified {
		t.Error("large growth misclassified as modification")
	}
	if w.Event(1).DocSize != 900_000 {
		t.Errorf("DocSize = %d, want 900000", w.Event(1).DocSize)
	}
}

func TestBuildWorkloadAblationAnyChange(t *testing.T) {
	// Negative threshold: any size change is a modification (the rule of
	// Jin & Bestavros the paper deviates from).
	w := build(t, -1,
		req("http://e.com/a.html", 100),
		req("http://e.com/a.html", 50),
	)
	if !w.Event(1).Modified {
		t.Error("ablation rule did not flag a 50% change as modification")
	}
}

func TestBuildWorkloadTransferFallback(t *testing.T) {
	r := &trace.Request{URL: "http://e.com/x.pdf", Status: 200, TransferSize: 1234}
	w := build(t, 0, r)
	if w.Event(0).DocSize != 1234 {
		t.Errorf("DocSize = %d, want transfer-size fallback 1234", w.Event(0).DocSize)
	}
	zero := &trace.Request{URL: "http://e.com/y.pdf", Status: 200}
	w = build(t, 0, zero)
	if w.Event(0).DocSize != 1 {
		t.Errorf("DocSize = %d, want 1 for zero-byte response", w.Event(0).DocSize)
	}
}

// TestBuildWorkloadAbortedTransferNeverShrinks covers the inferred-size
// ratchet: when sizes come from transfer history (no recorded DocSize), an
// aborted transfer — however close to complete — must neither shrink the
// recorded document size nor count as a modification. Before the guard, a
// 97%-read abort fell inside the 5% modification window and ratcheted the
// size down.
func TestBuildWorkloadAbortedTransferNeverShrinks(t *testing.T) {
	const url = "http://e.com/big.mpg"
	steps := []struct {
		transfer     int64
		wantModified bool
		wantDocSize  int64
	}{
		{1000, false, 1000}, // complete fetch establishes the size
		{970, false, 1000},  // 97% abort: inside the 5% window, must not shrink
		{1000, false, 1000}, // complete again: unchanged
		{400, false, 1000},  // deep abort: interrupted transfer as before
		{1000, false, 1000}, // complete again: unchanged
		{1020, true, 1020},  // 2% growth: a genuine modification
		{990, false, 1020},  // abort against the new size: no shrink
	}
	reqs := make([]*trace.Request, len(steps))
	for i, s := range steps {
		reqs[i] = xfer(url, s.transfer)
	}
	w := build(t, 0, reqs...)
	for i, s := range steps {
		ev := w.Event(i)
		if ev.Modified != s.wantModified {
			t.Errorf("step %d (transfer %d): Modified = %v, want %v",
				i, s.transfer, ev.Modified, s.wantModified)
		}
		if ev.DocSize != s.wantDocSize {
			t.Errorf("step %d (transfer %d): DocSize = %d, want %d",
				i, s.transfer, ev.DocSize, s.wantDocSize)
		}
	}
	if id := w.Event(0).DocID; w.FinalSize(id) != 1020 {
		t.Errorf("FinalSize = %d, want 1020", w.FinalSize(id))
	}
}

// TestBuildWorkloadRecordedShrinkStillModifies pins the boundary of the
// aborted-transfer guard: a *recorded* full size that shrinks within the
// window is a real modification, exactly as before.
func TestBuildWorkloadRecordedShrinkStillModifies(t *testing.T) {
	w := build(t, 0,
		req("http://e.com/a.html", 1000),
		req("http://e.com/a.html", 970), // recorded DocSize shrank 3%
	)
	ev := w.Event(1)
	if !ev.Modified || ev.DocSize != 970 {
		t.Errorf("recorded 3%% shrink: Modified = %v DocSize = %d, want true, 970",
			ev.Modified, ev.DocSize)
	}
}
