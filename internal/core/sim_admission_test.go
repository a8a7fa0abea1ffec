package core

import (
	"bytes"
	"fmt"
	"testing"

	"webcachesim/internal/admission"
	"webcachesim/internal/policy"
	"webcachesim/internal/trace"
)

// rejectAll admits while the cache has free space, then rejects every
// contested insert — a deterministic stand-in for a frequency filter.
type rejectAll struct {
	counts policy.AdmissionCounts
}

func (r *rejectAll) Touch(*policy.Doc) {}
func (r *rejectAll) Admit(candidate, victim *policy.Doc) bool {
	r.counts.Rejected++
	return false
}
func (r *rejectAll) Inserted(*policy.Doc)           { r.counts.Admitted++ }
func (r *rejectAll) Evicted(*policy.Doc)            {}
func (r *rejectAll) Counts() policy.AdmissionCounts { return r.counts }

func rejectAllFactory() policy.AdmitterFactory {
	return policy.AdmitterFactory{
		Name: "reject-all",
		New:  func(int64) policy.Admitter { return &rejectAll{} },
	}
}

// TestAdmissionRejectedInsertLeavesCacheUntouched: when the filter says
// no, nothing may be evicted and the resident set keeps producing hits.
// TestAdmissionJudgesMultiVictimInsertOnce covers inserts that need more
// than one victim.
func TestAdmissionRejectedInsertLeavesCacheUntouched(t *testing.T) {
	w := build(t, 0,
		req("http://e.com/a.gif", 600), // fills most of the cache
		req("http://e.com/b.gif", 600), // would need an eviction: rejected
		req("http://e.com/a.gif", 600), // must still be a hit
		req("http://e.com/b.gif", 600), // rejected again
		req("http://e.com/a.gif", 600), // still a hit
	)
	s := newSim(t, w, Config{Capacity: 1000, WarmupFraction: -1, Admission: rejectAllFactory()})
	r := s.Run(w)
	if r.Overall.Hits != 2 {
		t.Errorf("hits = %d, want 2 (resident document protected by the filter)", r.Overall.Hits)
	}
	if r.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 (rejection must precede eviction)", r.Evictions)
	}
	if r.AdmissionRejects != 2 || r.Admitted != 1 {
		t.Errorf("AdmissionRejects=%d Admitted=%d, want 2/1", r.AdmissionRejects, r.Admitted)
	}
	if r.Admission != "reject-all" {
		t.Errorf("Admission = %q, want reject-all", r.Admission)
	}
	if s.Used() != 600 {
		t.Errorf("Used = %d, want 600 (only the first document resident)", s.Used())
	}
}

// admitAgainst admits a candidate only when the victim it would displace
// first is the document with the given URL, and counts its questions.
type admitAgainst struct {
	rejectAll
	url   string
	asked int
}

func (a *admitAgainst) Admit(candidate, victim *policy.Doc) bool {
	a.asked++
	return victim.Key == a.url || a.rejectAll.Admit(candidate, victim)
}

// TestAdmissionJudgesMultiVictimInsertOnce: an insert that needs several
// victims is judged once, against the first, before anything is evicted —
// the store's rule. Admitted, it displaces every victim it needs; refused,
// it displaces none.
func TestAdmissionJudgesMultiVictimInsertOnce(t *testing.T) {
	for _, tc := range []struct {
		against                   string
		evictions, admitted, used int64
	}{
		{"http://e.com/a.gif", 3, 4, 900}, // a, b and c make room for d
		{"http://e.com/b.gif", 0, 3, 900}, // refused against a: a, b and c stay
	} {
		w := build(t, 0,
			req("http://e.com/a.gif", 300),
			req("http://e.com/b.gif", 300),
			req("http://e.com/c.gif", 300),
			req("http://e.com/d.gif", 900), // needs all three victims
		)
		adm := &admitAgainst{url: tc.against}
		s := newSim(t, w, Config{Capacity: 1000, WarmupFraction: -1, Admission: policy.AdmitterFactory{
			Name: "admit-against", New: func(int64) policy.Admitter { return adm },
		}})
		r := s.Run(w)
		if adm.asked != 1 {
			t.Errorf("admitting against %s: Admit asked %d times, want once", tc.against, adm.asked)
		}
		if r.Evictions != tc.evictions || r.Admitted != tc.admitted || s.Used() != tc.used {
			t.Errorf("admitting against %s: evictions = %d, admitted = %d, Used = %d; want %d, %d, %d",
				tc.against, r.Evictions, r.Admitted, s.Used(), tc.evictions, tc.admitted, tc.used)
		}
	}
}

// oneHitWonderStream interleaves a popular document with a long run of
// never-repeated fillers, the workload shape admission filters exist
// for. The fillers are sized so that in a 1000-byte unfiltered LRU each
// one displaces the popular document before its next reference.
func oneHitWonderStream() []*trace.Request {
	var reqs []*trace.Request
	for i := 0; i < 200; i++ {
		reqs = append(reqs, req("http://e.com/hot.gif", 400))
		reqs = append(reqs, req(fmt.Sprintf("http://e.com/once-%d.bin", i), 700))
	}
	return reqs
}

// TestAdmissionTinyLFUEndToEnd drives the real TinyLFU admitter through
// the simulator: the popular document must survive a stream of one-hit
// wonders that keeps washing it out of an unfiltered LRU.
func TestAdmissionTinyLFUEndToEnd(t *testing.T) {
	run := func(adm policy.AdmitterFactory) *Result {
		w := build(t, 0, oneHitWonderStream()...)
		s := newSim(t, w, Config{Capacity: 1000, WarmupFraction: -1, Admission: adm})
		return s.Run(w)
	}
	unfiltered := run(policy.NoAdmission())
	filtered := run(admission.MustSpec("tinylfu"))
	if filtered.Overall.Hits <= unfiltered.Overall.Hits {
		t.Errorf("TinyLFU hits = %d, want more than unfiltered %d on a one-hit-wonder stream",
			filtered.Overall.Hits, unfiltered.Overall.Hits)
	}
	if filtered.AdmissionRejects == 0 {
		t.Error("TinyLFU should have rejected some one-hit wonders")
	}
}

// TestAdmissionWithSizeShrinkGuard exercises admission alongside the
// aborted-transfer size rules: a transfer smaller than the known full
// size is an interrupted fetch and must not shrink the cached copy, and
// the admission bookkeeping must stay consistent through that path.
func TestAdmissionWithSizeShrinkGuard(t *testing.T) {
	w := build(t, 0,
		req("http://e.com/a.gif", 600),  // full transfer establishes the size
		xfer("http://e.com/a.gif", 100), // aborted transfer: hit, size must stay 600
		req("http://e.com/a.gif", 600),  // hit at full size
	)
	s := newSim(t, w, Config{Capacity: 1000, WarmupFraction: -1, Admission: admission.MustSpec("tinylfu")})
	r := s.Run(w)
	if r.Overall.Hits != 2 {
		t.Errorf("hits = %d, want 2", r.Overall.Hits)
	}
	if s.Used() != 600 {
		t.Errorf("Used = %d, want 600 (aborted transfer must not shrink the copy)", s.Used())
	}
}

func TestAdmissionJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := build(t, 0, oneHitWonderStream()...)
	results, err := Sweep(w, SweepConfig{
		Policies:       []policy.Factory{lruFactory()},
		Admissions:     []policy.AdmitterFactory{policy.NoAdmission(), admission.MustSpec("tinylfu")},
		Capacities:     []int64{1000},
		WarmupFraction: -1,
		Journal:        &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2 (1 policy × 2 admissions × 1 capacity)", len(results))
	}
	if results[0].Admission != "" || results[1].Admission != "tinylfu" {
		t.Errorf("admissions = %q, %q; want \"\", \"tinylfu\"", results[0].Admission, results[1].Admission)
	}

	recs, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sawAxis bool
	runEnds := map[string]JournalRecord{}
	for _, rec := range recs {
		if rec.Event == JournalSweepStart && len(rec.Admissions) == 2 {
			sawAxis = true
		}
		if rec.Event == JournalRunEnd {
			runEnds[rec.Admission] = rec
		}
	}
	if !sawAxis {
		t.Error("sweep_start should list the admission axis")
	}
	if len(runEnds) != 2 {
		t.Fatalf("run_end records for %d admissions, want 2 (%v)", len(runEnds), runEnds)
	}
	tiny := runEnds["tinylfu"]
	if tiny.Admitted == 0 || tiny.AdmissionRejects == 0 {
		t.Errorf("tinylfu run_end should carry admission counters: %+v", tiny)
	}
}

// TestAdmissionSweepGrid checks the full policy × admission × capacity
// ordering and that only filtered cells carry admission counters.
func TestAdmissionSweepGrid(t *testing.T) {
	w := build(t, 0, oneHitWonderStream()...)
	results, err := Sweep(w, SweepConfig{
		Policies:       []policy.Factory{lruFactory(), policy.MustFactory(policy.Spec{Scheme: "lfuda"})},
		Admissions:     admission.Specs(),
		Capacities:     []int64{1000, 2000},
		WarmupFraction: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 {
		t.Fatalf("results = %d, want 12 (2 policies × 3 admissions × 2 capacities)", len(results))
	}
	// Ordering: policy-major, then admission in configured order, then
	// ascending capacity.
	wantAdm := []string{"", "", "tinylfu", "tinylfu", "arc-ghost", "arc-ghost"}
	for i, r := range results[:6] {
		if r.Policy != "LRU" || r.Admission != wantAdm[i] {
			t.Errorf("results[%d] = %s/%q, want LRU/%q", i, r.Policy, r.Admission, wantAdm[i])
		}
	}
	for i, r := range results[6:] {
		if r.Policy != "LFU-DA" {
			t.Errorf("results[%d] policy = %s, want LFU-DA", i+6, r.Policy)
		}
	}
	// Self-consistency: every filtered cell accounts all inserts as
	// admitted, and unfiltered cells carry no admission counters.
	for _, r := range results {
		if r.Admission == "" && (r.Admitted != 0 || r.AdmissionRejects != 0) {
			t.Errorf("unfiltered cell carries admission counters: %+v", r)
		}
	}
}
