package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"webcachesim/internal/doctype"
	"webcachesim/internal/mrc"
	"webcachesim/internal/policy"
	"webcachesim/internal/trace"
)

// The LRU oracle. internal/mrc computes byte-capacity LRU at every cache
// size from one Mattson stack-distance scan over Fenwick trees: no recency
// list, no eviction loop, no resident set. Nothing in production calls
// it; here it is the independent second implementation the simulator's
// LRU replay is held against, count for count (docs/MRC.md has the
// argument and why it is not a fast path).

// oracleSource exposes the workload's request columns to the scan.
type oracleSource struct{ w *Workload }

func (s oracleSource) NumRequests() int { return s.w.NumRequests() }
func (s oracleSource) NumDocs() int     { return s.w.NumDocs() }

func (s oracleSource) Request(i int) mrc.Request {
	return mrc.Request{
		DocID:        s.w.cols.DocID[i],
		Class:        s.w.cols.Class[i],
		Modified:     s.w.cols.Modified[i],
		DocSize:      s.w.cols.DocSize[i],
		TransferSize: s.w.cols.Transfer[i],
	}
}

// oracleResult converts one capacity's curve into the Result a simulation
// of LRU at that capacity has to produce.
func oracleResult(cv *mrc.Curve, warmup int64) *Result {
	r := &Result{
		Policy:         "LRU",
		Capacity:       cv.Capacity,
		WarmupRequests: warmup,
		Evictions:      cv.Evictions,
		Modifications:  cv.Modifications,
		Uncachable:     cv.Uncachable,
	}
	for _, c := range doctype.Classes {
		cnt := cv.ByClass[c]
		r.ByClass[c] = Counts{
			Requests: cnt.Requests,
			Hits:     cnt.Hits,
			ReqBytes: cnt.ReqBytes,
			HitBytes: cnt.HitBytes,
		}
		r.Overall.add(r.ByClass[c])
	}
	return r
}

// conforms checks the oracle's precondition: the stack model equals a
// demand-eviction LRU cache of at least minCapacity bytes only on a stream
// where
//
//   - no document's recorded size changes without a modification (the
//     simulator recharges the resident copy in place and may evict
//     documents, the recharged one included, in an order no stack has);
//   - no document's recorded size ever shrinks (everything beneath it
//     would rise in the stack, and a cache cannot resurrect what it
//     evicted);
//   - no document is larger than minCapacity (the simulator never inserts
//     it, the stack model pushes it on top of everything resident) —
//     except one-time requests ahead of the first cacheable one, which
//     find the cache empty and sink to the bottom of the stack.
func conforms(w *Workload, minCapacity int64) error {
	last := make([]int64, w.NumDocs())
	cacheEmpty := true
	for i := 0; i < w.NumRequests(); i++ {
		ev := w.replayEvent(i)
		prev := last[ev.DocID]
		switch {
		case prev != 0 && !ev.Modified && ev.DocSize != prev:
			return fmt.Errorf("event %d recharges %s: %d -> %d bytes", i, w.Key(ev.DocID), prev, ev.DocSize)
		case ev.DocSize < prev:
			return fmt.Errorf("event %d shrinks %s: %d -> %d bytes", i, w.Key(ev.DocID), prev, ev.DocSize)
		case ev.DocSize > minCapacity && (prev != 0 || !cacheEmpty):
			return fmt.Errorf("event %d: %s (%d bytes) exceeds capacity %d", i, w.Key(ev.DocID), ev.DocSize, minCapacity)
		}
		if ev.DocSize <= minCapacity {
			cacheEmpty = false
		}
		last[ev.DocID] = ev.DocSize
	}
	return nil
}

// cleanWorkload builds a stream on which the oracle is exact at any
// capacity holding its largest document (conforms says why): sizes change
// only through modifications, and every modification grows the document
// by one byte, far under the 5% threshold. Sizes follow a heavy-ish tail
// when spread > 0. The stream opens with one request for a document of
// each head size; these may exceed a capacity under test.
func cleanWorkload(t testing.TB, n, docs int, seed int64, spread float64, head ...int64) *Workload {
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
	reqs := make([]*trace.Request, 0, len(head)+n)
	for i, size := range head {
		reqs = append(reqs, req(fmt.Sprintf("http://e.com/head%d.%s", i, exts[i%len(exts)]), size))
	}
	for i := 0; i < n; i++ {
		id := int(float64(docs) * rng.Float64() * rng.Float64())
		if rng.Intn(25) == 0 {
			sizes[id]++ // +1 byte: a sub-threshold change, i.e. a modification
		}
		reqs = append(reqs, req(fmt.Sprintf("http://e.com/d%d.%s", id, exts[id%len(exts)]), sizes[id]))
	}
	return build(t, 0, reqs...)
}

// checkLRUAgainstOracle sweeps LRU over the capacities and requires every
// Result to equal the oracle's, field for field.
func checkLRUAgainstOracle(t *testing.T, w *Workload, capacities []int64, warmupFraction float64) {
	t.Helper()
	if err := conforms(w, slices.Min(capacities)); err != nil {
		t.Fatalf("fixture outside the oracle's precondition: %v", err)
	}
	got, err := Sweep(w, SweepConfig{
		Policies:       policy.StudyFactories()[:1],
		Capacities:     capacities,
		WarmupFraction: warmupFraction,
	})
	if err != nil {
		t.Fatal(err)
	}
	warmup, err := resolveWarmup(warmupFraction, w.NumRequests())
	if err != nil {
		t.Fatal(err)
	}
	curves, err := mrc.ComputeLRU(oracleSource{w}, mrc.Config{Capacities: capacities, WarmupRequests: warmup})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(curves) {
		t.Fatalf("%d results for %d oracle curves", len(got), len(curves))
	}
	for i, cv := range curves {
		if want := oracleResult(cv, warmup); !reflect.DeepEqual(got[i], want) {
			t.Errorf("LRU @%d: simulator diverges from the stack-distance oracle\n got %+v\nwant %+v",
				cv.Capacity, got[i], want)
		}
	}
}

// TestSweepLRUMatchesOracle is the hand-built case: a heavy-tailed stream
// with growing modifications, opened by three documents that do not fit
// the smaller capacities. Without warmup those three are measured, so the
// simulator's refusal to insert them is part of what the oracle checks.
func TestSweepLRUMatchesOracle(t *testing.T) {
	w := cleanWorkload(t, 12_000, 300, 3, 1, 150_000, 450_000, 1_000_000)
	capacities := []int64{120_000, 400_000, 900_000, 2_500_000}
	for name, warmupFraction := range map[string]float64{"default warmup": 0, "no warmup": -1} {
		t.Run(name, func(t *testing.T) { checkLRUAgainstOracle(t, w, capacities, warmupFraction) })
	}
}

// TestSweepLRUMatchesOracleRandomTraces repeats the comparison over
// randomized conforming traces, uniform and heavy-tailed.
func TestSweepLRUMatchesOracleRandomTraces(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		spread := float64(trial % 2) // alternate uniform / heavy-tailed sizes
		w := cleanWorkload(t, 4000, 60+40*trial, int64(100+trial), spread)
		checkLRUAgainstOracle(t, w, []int64{
			slices.Max(w.cols.DocSize) + 1 + int64(trial)*10_000,
			w.DistinctBytes() / 4,
			w.DistinctBytes(),
		}, 0)
	}
}
