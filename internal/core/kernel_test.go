package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"webcachesim/internal/policy"
	"webcachesim/internal/trace"
)

// TestReplaySteadyStateZeroAlloc pins the replay kernel's allocation
// contract for the paper's six schemes: once a pass over the workload has
// built the per-document tables and grown the policy's heap array and
// GD*'s last-seen table, replaying events allocates nothing — no heap
// item, no list element, no Doc, no map bucket.
//
// The β estimator's periodic refit does allocate (histogram buckets, the
// regression's scratch); the workload is short enough that all six passes
// stay inside its first 50,000-observation window.
func TestReplaySteadyStateZeroAlloc(t *testing.T) {
	w, err := BuildWorkload(trace.NewSliceReader(benchRequests(8000)), 0)
	if err != nil {
		t.Fatal(err)
	}
	n := w.NumRequests()
	for _, f := range policy.StudyFactories() {
		t.Run(f.Name, func(t *testing.T) {
			sim, err := NewSimulator(w, Config{Capacity: 4 << 20, Policy: f})
			if err != nil {
				t.Fatal(err)
			}
			pass := func() {
				for i := 0; i < n; i++ {
					ev := w.Event(i)
					sim.Process(&ev)
				}
			}
			pass()
			pass()
			if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
				t.Fatalf("steady-state replay allocates %.0f allocs per %d-event pass, want 0", allocs, n)
			}
			if r := sim.Result(); r.Evictions == 0 || r.Overall.Hits == 0 {
				t.Fatalf("the passes must both evict and hit to mean anything: %+v", r)
			}
		})
	}
}

// TestStreamGrowthKeepsDocsInPlace replays a trace with several slab
// chunks' worth of distinct documents through StreamSimulator, whose
// document table grows one document at a time while the policy already
// holds pointers into it (heap handles and list nodes live inside the
// Docs). Old documents stay resident and keep being hit while the table
// grows past chunk after chunk, so a table that ever moved a Doc would
// hand the policy a stale copy: the result would leave the batch
// simulator's, and policy.Checked would trip on the victim.
func TestStreamGrowthKeepsDocsInPlace(t *testing.T) {
	const docs = 3*docChunk + 100
	rng := rand.New(rand.NewSource(23))
	var reqs []*trace.Request
	sizeOf := func(id int) int64 { return int64(500 + id%97*40) }
	for next := 0; next < docs; {
		id := next
		if next > 0 && rng.Intn(3) > 0 {
			id = rng.Intn(next) // re-reference anything introduced so far
		} else {
			next++
		}
		reqs = append(reqs, req(fmt.Sprintf("http://e.com/d%d.gif", id), sizeOf(id)))
	}
	w, err := BuildWorkload(trace.NewSliceReader(reqs), 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumDocs() != docs {
		t.Fatalf("workload has %d documents, want %d", w.NumDocs(), docs)
	}
	// Room for about a third of the documents: steady eviction, and plenty
	// of first-chunk documents still resident when the last chunk is added.
	capacity := w.DistinctBytes() / 3
	for _, spec := range []policy.Spec{
		{Scheme: "lru"},
		{Scheme: "gdstar", Cost: policy.PacketCost{}},
	} {
		f := policy.MustFactory(spec)
		t.Run(f.Name, func(t *testing.T) {
			cfg := Config{Capacity: capacity, Policy: checkedFactory(f)}
			batchCfg := cfg
			batchCfg.WarmupFraction = -1 // none, as the stream is given none
			batch, err := NewSimulator(w, batchCfg)
			if err != nil {
				t.Fatal(err)
			}
			want := batch.Run(w)
			stream, err := NewStreamSimulator(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := stream.Run(trace.NewSliceReader(reqs), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("streaming result diverges from batch:\n got %+v\nwant %+v", got, want)
			}
			if want.Evictions == 0 || want.Overall.Hits == 0 {
				t.Errorf("the replay must both evict and hit to mean anything: %+v", want)
			}
			if chunks := len(stream.sim.docs.chunks); chunks != 4 {
				t.Errorf("stream table has %d chunks, want 4", chunks)
			}
		})
	}
}
