package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"webcachesim/internal/policy"
	"webcachesim/internal/trace"
)

// cleanWorkload builds a workload on which the MRC fast path is provably
// exact: sizes never change except through modifications, and every
// modification grows the document by one byte (far under the 5%
// threshold), so recorded sizes are monotone and never recharge. Sizes
// follow a heavy-ish tail when spread > 0.
func cleanWorkload(t *testing.T, n, docs int, seed int64, spread float64) *Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	exts := []string{"gif", "html", "mp3", "pdf", "ps"}
	sizes := make([]int64, docs)
	for i := range sizes {
		base := 200 + rng.Intn(4000)
		if spread > 0 && rng.Float64() < 0.1 {
			base += int(spread * rng.Float64() * 40_000)
		}
		sizes[i] = int64(base)
	}
	reqs := make([]*trace.Request, 0, n)
	for i := 0; i < n; i++ {
		id := int(float64(docs) * rng.Float64() * rng.Float64())
		if rng.Intn(25) == 0 {
			sizes[id]++ // +1 byte: a sub-threshold change, i.e. a modification
		}
		reqs = append(reqs, req(fmt.Sprintf("http://e.com/d%d.%s", id, exts[id%len(exts)]), sizes[id]))
	}
	w := build(t, 0, reqs...)
	if w.sizeRecharge || w.sizeShrink {
		t.Fatal("cleanWorkload produced a recharge/shrink event; fixture broken")
	}
	return w
}

// TestSweepMRCFastPathMatchesPerCell is the golden cross-check of the
// tentpole: on an MRC-exact workload the fast path must reproduce per-cell
// LRU simulation bit for bit, across every class and counter, and the
// journal must show that LRU cells were in fact served by the one scan.
func TestSweepMRCFastPathMatchesPerCell(t *testing.T) {
	w := cleanWorkload(t, 12_000, 300, 3, 1)
	caps := []int64{120_000, 400_000, 900_000, 2_500_000}
	if !w.MRCExact(caps[0]) {
		t.Fatalf("fixture not MRC-exact (maxDocSize %d)", w.MaxDocSize())
	}
	var journal bytes.Buffer
	cfg := SweepConfig{
		Policies:   policy.StudyFactories(),
		Capacities: caps,
		Journal:    &journal,
	}
	fast, err := Sweep(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// SelfCheck forces every cell, LRU included, through per-cell replay.
	slow, err := Sweep(w, SweepConfig{
		Policies:   cfg.Policies,
		Capacities: caps,
		SelfCheck:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(slow) {
		t.Fatalf("result counts differ: %d vs %d", len(fast), len(slow))
	}
	for i := range fast {
		if !reflect.DeepEqual(fast[i], slow[i]) {
			t.Errorf("%s @%d: fast path diverges from per-cell\n got %+v\nwant %+v",
				slow[i].Policy, slow[i].Capacity, fast[i], slow[i])
		}
	}

	recs, err := ReadJournal(&journal)
	if err != nil {
		t.Fatal(err)
	}
	var mrcPasses, lruRuns int
	for _, rec := range recs {
		switch rec.Event {
		case JournalMRCPass:
			mrcPasses++
			if rec.Policy != "LRU" || len(rec.Capacities) != len(caps) {
				t.Errorf("mrc_pass record %+v malformed", rec)
			}
		case JournalRunStart, JournalRunEnd:
			if rec.Policy == "LRU" {
				lruRuns++
			}
		}
	}
	if mrcPasses != 1 {
		t.Errorf("journal has %d mrc_pass records, want 1", mrcPasses)
	}
	if lruRuns != 0 {
		t.Errorf("journal has %d per-cell LRU run records; fast path did not engage", lruRuns)
	}
}

// TestSweepMRCPropertyRandomTraces fuzzes the cross-check over many
// randomized clean traces — uniform and heavy-tailed size distributions,
// with modifications — comparing the full Result structs.
func TestSweepMRCPropertyRandomTraces(t *testing.T) {
	lru := policy.StudyFactories()[:1]
	for trial := 0; trial < 8; trial++ {
		spread := float64(trial % 2) // alternate uniform / heavy-tailed sizes
		w := cleanWorkload(t, 4000, 60+40*trial, int64(100+trial), spread)
		caps := []int64{
			w.MaxDocSize() + 1 + int64(trial)*10_000,
			w.DistinctBytes() / 4,
			w.DistinctBytes(),
		}
		if !w.MRCExact(caps[0]) {
			t.Fatalf("trial %d: fixture not MRC-exact", trial)
		}
		fast, err := Sweep(w, SweepConfig{Policies: lru, Capacities: caps})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := Sweep(w, SweepConfig{Policies: lru, Capacities: caps, SelfCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, slow) {
			for i := range fast {
				if !reflect.DeepEqual(fast[i], slow[i]) {
					t.Errorf("trial %d, %s @%d:\n got %+v\nwant %+v",
						trial, slow[i].Policy, slow[i].Capacity, fast[i], slow[i])
				}
			}
		}
	}
}

func TestSweepRejectsBadPolicySets(t *testing.T) {
	w := cleanWorkload(t, 100, 10, 1, 0)
	lru := policy.StudyFactories()[0]
	dup := SweepConfig{
		Policies:   []policy.Factory{lru, lru},
		Capacities: []int64{1000, 2000},
	}
	if _, err := Sweep(w, dup); err == nil {
		t.Error("duplicate policy names accepted")
	}
	nilNew := SweepConfig{
		Policies:   []policy.Factory{{Name: "broken"}},
		Capacities: []int64{1000},
	}
	if _, err := Sweep(w, nilNew); err == nil {
		t.Error("nil policy constructor accepted")
	}
}
