package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"webcachesim/internal/admission"
	"webcachesim/internal/policy"
	"webcachesim/internal/trace"
)

// reuseWorkload is a random workload that takes every path of the replay
// kernel: modifications (a document a byte shorter), interrupted transfers
// (an inferred size a quarter of the document's), documents first seen
// through such a transfer and then in full (a resident copy that grows,
// the recharge path), and documents larger than one or both capacities of
// reuseCapacities. Sizes are multiples of 200 bytes, so that equal values
// of a size-based scheme are common.
func reuseWorkload(t *testing.T, seed int64) *Workload {
	t.Helper()
	const docs = 400
	rng := rand.New(rand.NewSource(seed))
	exts := []string{"gif", "html", "mp3", "pdf", "cgi?q=1"}
	sizes := make([]int64, docs)
	for i := range sizes {
		sizes[i] = int64(200 * (1 + rng.Intn(100)))
		switch i % 50 {
		case 7:
			sizes[i] = 150_000 // larger than the smaller capacity
		case 9:
			sizes[i] = 1_000_000 // larger than both
		}
	}
	var reqs []*trace.Request
	for i := 0; i < 5000; i++ {
		id := int(float64(docs) * rng.Float64() * rng.Float64())
		url := fmt.Sprintf("http://reuse.test/d%d.%s", id, exts[id%len(exts)])
		switch rng.Intn(20) {
		case 0:
			sizes[id]--
			reqs = append(reqs, req(url, sizes[id]))
		case 1, 2:
			reqs = append(reqs, xfer(url, sizes[id]/4))
		default:
			reqs = append(reqs, req(url, sizes[id]))
		}
	}
	return build(t, 0, reqs...)
}

var reuseCapacities = []int64{100_000, 600_000}

// TestSweepTableReuseCarriesNoState runs a one-worker sweep, whose single
// worker replays every cell on one set of document tables, and requires
// each cell's result to equal a fresh simulator's, field for field. It
// covers every scheme Sweep accepts, under the contract checker, and every
// admission filter, so a Doc or residency bit left over from the previous
// cell — a list node still linked into its policy, a document still
// marked resident — shows as a diverging cell or a contract violation.
func TestSweepTableReuseCarriesNoState(t *testing.T) {
	w := reuseWorkload(t, 43)
	var modified, grown, oversized bool
	last := make([]int64, w.NumDocs())
	for i := 0; i < w.NumRequests(); i++ {
		ev := w.Event(i)
		modified = modified || ev.Modified
		grown = grown || (!ev.Modified && last[ev.DocID] > 0 && ev.DocSize > last[ev.DocID])
		oversized = oversized || ev.DocSize > reuseCapacities[len(reuseCapacities)-1]
		last[ev.DocID] = ev.DocSize
	}
	if !modified || !grown || !oversized {
		t.Fatalf("workload misses a path: modified %v, grown after interruption %v, larger than the cache %v",
			modified, grown, oversized)
	}

	var policies []policy.Factory
	for _, spec := range []string{
		"lru", "lfuda", "gds:1", "gds:p", "gdstar:1", "gdstar:p", "gdsf:1", "gdsf:p",
		"fifo", "size", "lfu", "slru", "typeaware+gdstar:1", "typeaware+lru",
	} {
		parsed, err := policy.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		policies = append(policies, checkedFactory(policy.MustFactory(parsed)))
	}
	admissions := admission.Specs()
	results, err := Sweep(w, SweepConfig{
		Policies:    policies,
		Admissions:  admissions,
		Capacities:  reuseCapacities,
		Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, f := range policies {
		for _, a := range admissions {
			for _, c := range reuseCapacities {
				fresh := newSim(t, w, Config{Capacity: c, Policy: f, Admission: a})
				if want := fresh.Run(w); !reflect.DeepEqual(results[i], want) {
					t.Errorf("%s/%s/%d: reused tables diverge from a fresh run\n got %+v\nwant %+v",
						f.Name, a.Name, c, results[i], want)
				}
				i++
			}
		}
	}
}

// TestSweepAllocatesOneTablePerWorker pins the allocation contract of a
// one-worker sweep: its cells share one set of document tables, so a cell
// added to the grid adds a policy, a simulator and a result, never a
// table of NumDocs Docs.
func TestSweepAllocatesOneTablePerWorker(t *testing.T) {
	// Every document is requested twice, so the table dwarfs what an LRU
	// cell allocates for itself.
	const docs = 20_000
	reqs := make([]*trace.Request, 0, 2*docs)
	for i := 0; i < 2*docs; i++ {
		reqs = append(reqs, req(fmt.Sprintf("http://table.test/d%d.gif", i%docs), 1000))
	}
	w := build(t, 0, reqs...)
	alloc := func(cells int) int64 {
		caps := make([]int64, cells)
		for i := range caps {
			caps[i] = int64(i+1) << 20
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Sweep(w, SweepConfig{Policies: []policy.Factory{lruFactory()}, Capacities: caps, Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	const fewer, more = 2, 10
	perCell := (alloc(more) - alloc(fewer)) / (more - fewer)
	table := int64(w.NumDocs()) * int64(unsafe.Sizeof(policy.Doc{}))
	if perCell >= table {
		t.Fatalf("each added cell allocates %d B, a document table's worth (%d docs × %d B = %d B) or more",
			perCell, w.NumDocs(), unsafe.Sizeof(policy.Doc{}), table)
	}
	t.Logf("%d B per added cell; one document table is %d B", perCell, table)
}
