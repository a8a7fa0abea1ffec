package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"webcachesim/internal/policy"
)

// fakeClock is a deterministic time source: every reading advances it by
// a fixed step, so journals written under it are reproducible.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

func journaledSweep(t testing.TB, w *Workload, cfg SweepConfig) ([]*Result, []JournalRecord, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	clock := &fakeClock{t: time.UnixMilli(1_000_000), step: 7 * time.Millisecond}
	cfg.Journal = &buf
	cfg.Now = clock.now
	results, err := Sweep(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("journal does not re-parse: %v\n%s", err, buf.String())
	}
	return results, recs, &buf
}

func TestSweepJournalShape(t *testing.T) {
	// Every cell is journaled as a run, LRU's included.
	w := sweepWorkload(t, 3000)
	policies := policy.StudyFactories()[:2]
	caps := []int64{100_000, 400_000}
	results, recs, _ := journaledSweep(t, w, SweepConfig{
		Policies:   policies,
		Capacities: caps,
	})

	if recs[0].Event != JournalSweepStart {
		t.Fatalf("first record is %s, want %s", recs[0].Event, JournalSweepStart)
	}
	if recs[0].Cells != 4 || recs[0].Requests != 3000 || recs[0].Documents <= 0 {
		t.Errorf("bad sweep_start: %+v", recs[0])
	}
	if got, want := recs[0].Policies, []string{policies[0].Name, policies[1].Name}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("sweep_start policies = %v, want %v", got, want)
	}
	last := recs[len(recs)-1]
	if last.Event != JournalSweepEnd || last.Cells != 4 || last.Requests != 4*3000 {
		t.Errorf("bad sweep_end: %+v", last)
	}

	// Every cell must contribute exactly one run_start and one run_end,
	// and the run_end figures must match the returned results.
	type cell struct {
		policy   string
		capacity int64
	}
	starts := map[cell]int{}
	ends := map[cell]JournalRecord{}
	progress := 0
	for _, r := range recs[1 : len(recs)-1] {
		c := cell{r.Policy, r.Capacity}
		switch r.Event {
		case JournalRunStart:
			starts[c]++
		case JournalRunEnd:
			ends[c] = r
		case JournalProgress:
			progress++
			if r.Requests <= 0 || r.Requests >= 3000 {
				t.Errorf("progress tick out of range: %+v", r)
			}
		default:
			t.Errorf("unexpected mid-journal event %s", r.Event)
		}
	}
	if len(starts) != 4 || len(ends) != 4 {
		t.Fatalf("got %d run_start cells, %d run_end cells, want 4 each", len(starts), len(ends))
	}
	// Default tick interval is a tenth of the workload: 9 interior ticks
	// per run (the 10th coincides with the end and is suppressed).
	if progress != 4*9 {
		t.Errorf("progress ticks = %d, want 36", progress)
	}
	for _, res := range results {
		end, ok := ends[cell{res.Policy, res.Capacity}]
		if !ok {
			t.Fatalf("no run_end for %s/%d", res.Policy, res.Capacity)
		}
		if end.Evictions != res.Evictions || end.Hits != res.Overall.Hits {
			t.Errorf("%s/%d: journal end %+v disagrees with result (evictions %d, hits %d)",
				res.Policy, res.Capacity, end, res.Evictions, res.Overall.Hits)
		}
		if end.HitRate != res.Overall.HitRate() || end.ByteHitRate != res.Overall.ByteHitRate() {
			t.Errorf("%s/%d: journal rates disagree with result", res.Policy, res.Capacity)
		}
		if end.ElapsedMs <= 0 || end.RequestsPerSec <= 0 {
			t.Errorf("%s/%d: non-positive cost fields: %+v", res.Policy, res.Capacity, end)
		}
	}
}

func TestSweepJournalDoesNotChangeResults(t *testing.T) {
	w := sweepWorkload(t, 3000)
	cfg := SweepConfig{
		Policies:   policy.StudyFactories()[:2],
		Capacities: []int64{100_000, 400_000},
	}
	plain, err := Sweep(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	journaled, _, _ := journaledSweep(t, w, cfg)
	if len(plain) != len(journaled) {
		t.Fatalf("result count differs: %d vs %d", len(plain), len(journaled))
	}
	for i := range plain {
		if plain[i].Overall != journaled[i].Overall || plain[i].Evictions != journaled[i].Evictions {
			t.Errorf("cell %d: journaled sweep changed the result", i)
		}
	}
}

func TestSweepJournalZeroDurationClock(t *testing.T) {
	// A clock that never advances must not produce unparseable output
	// (JSON has no +Inf): throughput degrades to zero. Every timestamp is
	// a reading of that clock, never of the wall clock.
	w := sweepWorkload(t, 500)
	var buf bytes.Buffer
	frozen := time.UnixMilli(5_000)
	_, err := Sweep(w, SweepConfig{
		Policies:   policy.StudyFactories()[:1],
		Capacities: []int64{100_000},
		Journal:    &buf,
		Now:        func() time.Time { return frozen },
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Event == JournalRunEnd && r.RequestsPerSec != 0 {
			t.Errorf("frozen clock produced rps %v, want 0", r.RequestsPerSec)
		}
		if r.UnixMs != frozen.UnixMilli() {
			t.Errorf("%s record at %d ms, want the injected clock's %d", r.Event, r.UnixMs, frozen.UnixMilli())
		}
	}
}

// malformedJournals are inputs ReadJournal must refuse.
var malformedJournals = map[string]string{
	"empty":              "",
	"not json":           "hello\n",
	"unknown event":      `{"event":"bogus","unixMs":1}` + "\n",
	"unknown field":      `{"event":"sweep_start","unixMs":1,"policies":["lru"],"capacities":[1],"wat":3}` + "\n",
	"missing cell":       `{"event":"sweep_start","unixMs":1,"policies":["lru"],"capacities":[1]}` + "\n" + `{"event":"run_end","unixMs":2}` + "\n",
	"wrong first record": `{"event":"run_start","unixMs":1,"policy":"lru","capacity":5}` + "\n",
	"bare sweep_start":   `{"event":"sweep_start","unixMs":1}` + "\n",
	"legacy partitioned_pass": `{"event":"sweep_start","unixMs":1,"policies":["lru"],"capacities":[1]}` + "\n" +
		`{"event":"partitioned_pass","unixMs":2,"policy":"lru","capacity":1}` + "\n",
	"legacy mrc_pass": `{"event":"sweep_start","unixMs":1,"policies":["lru"],"capacities":[1]}` + "\n" +
		`{"event":"mrc_pass","unixMs":2,"policy":"lru"}` + "\n",
	// A complete journal as the removed fast paths wrote it.
	"legacy journal": `{"event":"sweep_start","unixMs":1,"policies":["lru","gds:1"],"capacities":[4096,8192]}` + "\n" +
		`{"event":"mrc_pass","unixMs":2,"policy":"lru","capacities":[4096,8192],"requests":10,"elapsedMs":1.5,"rps":6666}` + "\n" +
		`{"event":"partitioned_pass","unixMs":2,"policy":"gds:1","capacity":4096,"partitions":4,"requests":10,"hits":3}` + "\n" +
		`{"event":"sweep_end","unixMs":3,"cells":1}` + "\n",
}

func TestReadJournalRejectsMalformed(t *testing.T) {
	for name, in := range malformedJournals {
		if _, err := ReadJournal(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJournal accepted malformed input", name)
		}
	}
}

// FuzzReadJournal: whatever the bytes, ReadJournal returns records or an
// error, and a journal it accepted is accepted again once each record is
// re-encoded the way Sweep writes one.
func FuzzReadJournal(f *testing.F) {
	// Two cells, one filtered, keep the seed short: the fuzzer minimizes
	// every interesting input it derives from it.
	_, _, real := journaledSweep(f, sweepWorkload(f, 200), SweepConfig{
		Policies:   policy.StudyFactories()[:1],
		Admissions: []policy.AdmitterFactory{policy.NoAdmission(), rejectAllFactory()},
		Capacities: []int64{100_000},
	})
	f.Add(real.Bytes())
	for _, in := range malformedJournals {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Re-encoding escapes <, > and & to six bytes each, so only inputs
		// well under the reader's 1 MiB line limit are sure to fit it again.
		if len(data) > 64<<10 {
			return
		}
		recs, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		enc := json.NewEncoder(&again)
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				t.Fatalf("accepted record %+v does not encode: %v", rec, err)
			}
		}
		recs2, err := ReadJournal(&again)
		if err != nil || len(recs2) != len(recs) {
			t.Fatalf("re-encoded journal: %d records, %v; first read gave %d\n%s", len(recs2), err, len(recs), again.String())
		}
	})
}

type failingWriter struct{ after int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errWriteFailed
	}
	f.after--
	return len(p), nil
}

var errWriteFailed = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }

func TestSweepJournalWriteErrorSurfaces(t *testing.T) {
	w := sweepWorkload(t, 500)
	_, err := Sweep(w, SweepConfig{
		Policies:   policy.StudyFactories()[:1],
		Capacities: []int64{100_000},
		Journal:    &failingWriter{after: 2},
	})
	if err == nil {
		t.Fatal("journal write failure not surfaced")
	}
	if !strings.Contains(err.Error(), "journal") {
		t.Errorf("error %v does not mention the journal", err)
	}
}
