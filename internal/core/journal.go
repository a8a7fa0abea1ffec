package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// The run journal is the sweep's flight recorder: one JSON object per
// line (JSONL) describing when each policy × capacity cell started, how
// fast it progressed, and what it cost in wall-clock time. It exists so
// performance work on the simulator has a measured baseline — the
// trajectory a BENCH_*.json needs — without instrumenting ad hoc.
//
// Journal timestamps come from an injectable clock (SweepConfig.Now), so
// the simulation results remain a pure function of trace and
// configuration; the journal merely observes. The schema is documented in
// docs/METRICS.md and kept honest by a CI smoke test that generates,
// writes and re-parses a journal.

// Journal event types, in the order they appear in a well-formed journal.
const (
	// JournalSweepStart opens the journal: the grid being swept.
	JournalSweepStart = "sweep_start"
	// JournalMRCPass and JournalPartitionedPass name records Sweep no
	// longer writes; ReadJournal refuses them as unknown events. The names
	// stay only while bench/offline.go spells them.
	JournalMRCPass         = "mrc_pass"
	JournalPartitionedPass = "partitioned_pass"
	// JournalRunStart marks one policy × capacity cell starting.
	JournalRunStart = "run_start"
	// JournalProgress is a periodic per-run tick with throughput so far.
	JournalProgress = "progress"
	// JournalRunEnd closes one cell with its final cost and hit rates.
	JournalRunEnd = "run_end"
	// JournalSweepEnd closes the journal with the total wall time.
	JournalSweepEnd = "sweep_end"
)

// JournalRecord is one journal line. Event selects which fields are
// meaningful; unused fields are omitted from the JSON encoding. Runs from
// different cells interleave in a parallel sweep — consumers must key
// run-scoped records by (Policy, Admission, Capacity), which Sweep
// guarantees unique within one sweep.
type JournalRecord struct {
	// Event is one of the Journal* constants.
	Event string `json:"event"`
	// UnixMs is the wall-clock timestamp of the record in Unix
	// milliseconds (from the sweep's injectable clock).
	UnixMs int64 `json:"unixMs"`

	// Policies, Capacities, Parallelism and Cells describe the grid
	// (sweep_start). Admissions lists the admission axis, omitted when
	// the sweep runs without filters.
	Policies    []string `json:"policies,omitempty"`
	Admissions  []string `json:"admissions,omitempty"`
	Capacities  []int64  `json:"capacities,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`
	Cells       int      `json:"cells,omitempty"`
	// Documents is the workload's distinct-document count (sweep_start).
	Documents int64 `json:"documents,omitempty"`

	// Policy, Admission and Capacity identify the cell (run_start,
	// progress, run_end); Admission is empty when the cell ran without a
	// filter, so pre-admission journals parse unchanged.
	Policy    string `json:"policy,omitempty"`
	Admission string `json:"admission,omitempty"`
	Capacity  int64  `json:"capacity,omitempty"`

	// Requests is the total number of trace events: the workload size on
	// sweep_start, the events replayed so far on progress, and the full
	// replay count on run_end and sweep_end.
	Requests int64 `json:"requests,omitempty"`
	// ElapsedMs is the wall-clock time spent so far in this run
	// (progress) or overall (run_end, sweep_end).
	ElapsedMs float64 `json:"elapsedMs,omitempty"`
	// RequestsPerSec is Requests/ElapsedMs·1000 — the replay throughput.
	RequestsPerSec float64 `json:"rps,omitempty"`
	// Evictions counts replacement victims so far (progress, run_end).
	Evictions int64 `json:"evictions,omitempty"`
	// Hits, HitRate and ByteHitRate summarize the measured (post-warmup)
	// window (run_end).
	Hits        int64   `json:"hits,omitempty"`
	HitRate     float64 `json:"hitRate,omitempty"`
	ByteHitRate float64 `json:"byteHitRate,omitempty"`
	// Admitted, AdmissionRejects and GhostHits are the cell's admission
	// counters (run_end, only with a filter configured).
	Admitted         int64 `json:"admitted,omitempty"`
	AdmissionRejects int64 `json:"admissionRejects,omitempty"`
	GhostHits        int64 `json:"ghostHits,omitempty"`
}

// journalWriter serializes records from concurrently running cells onto
// one stream.
type journalWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
	now func() time.Time
	err error
}

func newJournalWriter(w io.Writer, now func() time.Time) *journalWriter {
	return &journalWriter{enc: json.NewEncoder(w), now: now}
}

// emit stamps and writes one record. The first write error sticks and
// suppresses further output; Sweep surfaces it once at the end rather
// than failing mid-grid.
func (j *journalWriter) emit(rec JournalRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	rec.UnixMs = j.now().UnixMilli()
	if err := j.enc.Encode(rec); err != nil {
		j.err = err
	}
}

// throughput converts an event count and elapsed duration into
// (elapsedMs, requests/sec), guarding the zero-duration case a coarse or
// injected clock produces (JSON cannot encode +Inf).
func throughput(events int64, elapsed time.Duration) (elapsedMs, rps float64) {
	elapsedMs = float64(elapsed.Nanoseconds()) / 1e6
	if elapsed > 0 {
		rps = float64(events) / elapsed.Seconds()
	}
	return elapsedMs, rps
}

// runCell replays one sweep cell. Without a journal (a nil receiver) that
// is Simulator.Run; with one, the replay is cut into tenths of the
// workload (at least one event each) so every run journals a handful of
// progress ticks regardless of trace size, between run_start and run_end.
func (j *journalWriter) runCell(sim *Simulator, w *Workload) *Result {
	if j == nil {
		return sim.Run(w)
	}
	// rec carries the cell's key; each record fills in its own fields.
	rec := JournalRecord{
		Event:     JournalRunStart,
		Policy:    sim.cfg.Policy.Name,
		Admission: sim.result.Admission,
		Capacity:  sim.cfg.Capacity,
	}
	j.emit(rec)
	start := j.now()
	n := w.NumRequests()
	tick := max(n/10, 1)
	for lo := 0; lo < n; lo += tick {
		hi := min(lo+tick, n)
		sim.run(w, lo, hi)
		if hi < n {
			rec.Event = JournalProgress
			rec.Requests = int64(hi)
			rec.ElapsedMs, rec.RequestsPerSec = throughput(rec.Requests, j.now().Sub(start))
			rec.Evictions = sim.result.Evictions
			j.emit(rec)
		}
	}
	r := sim.Result()
	rec.Event = JournalRunEnd
	rec.Requests = int64(n)
	rec.ElapsedMs, rec.RequestsPerSec = throughput(rec.Requests, j.now().Sub(start))
	rec.Evictions = r.Evictions
	rec.Hits = r.Overall.Hits
	rec.HitRate = r.Overall.HitRate()
	rec.ByteHitRate = r.Overall.ByteHitRate()
	rec.Admitted = r.Admitted
	rec.AdmissionRejects = r.AdmissionRejects
	rec.GhostHits = r.GhostHits
	j.emit(rec)
	return r
}

// ReadJournal parses and validates a run journal: every line must be a
// JSON object with a known event type, run-scoped records must name their
// cell, and the stream must open with sweep_start. It returns the records
// in file order. Errors identify the offending line number.
func ReadJournal(r io.Reader) ([]JournalRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []JournalRecord
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec JournalRecord
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("core: journal line %d: %w", line, err)
		}
		if err := validateJournalRecord(rec, len(out) == 0); err != nil {
			return nil, fmt.Errorf("core: journal line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: journal: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: journal is empty")
	}
	return out, nil
}

func validateJournalRecord(rec JournalRecord, first bool) error {
	switch rec.Event {
	case JournalSweepStart:
		if len(rec.Policies) == 0 || len(rec.Capacities) == 0 {
			return fmt.Errorf("%s without policies/capacities", rec.Event)
		}
	case JournalRunStart, JournalProgress, JournalRunEnd:
		if rec.Policy == "" || rec.Capacity <= 0 {
			return fmt.Errorf("%s without policy/capacity", rec.Event)
		}
	case JournalSweepEnd:
	default:
		return fmt.Errorf("unknown event %q", rec.Event)
	}
	if first && rec.Event != JournalSweepStart {
		return fmt.Errorf("journal must open with %s, got %s", JournalSweepStart, rec.Event)
	}
	return nil
}
