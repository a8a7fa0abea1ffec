package mrc

import (
	"math/rand"
	"testing"

	"webcachesim/internal/doctype"
)

// sliceSource is a test Source over a request slice.
type sliceSource struct {
	reqs []Request
	docs int
}

func newSliceSource(reqs []Request) *sliceSource {
	max := int32(-1)
	for _, r := range reqs {
		if r.DocID > max {
			max = r.DocID
		}
	}
	return &sliceSource{reqs: reqs, docs: int(max) + 1}
}

func (s *sliceSource) NumRequests() int      { return len(s.reqs) }
func (s *sliceSource) NumDocs() int          { return s.docs }
func (s *sliceSource) Request(i int) Request { return s.reqs[i] }

func req(doc int32, size int64) Request {
	return Request{DocID: doc, Class: doctype.Image, DocSize: size, TransferSize: size}
}

// TestScanDistancesHandComputed pins the scan against a stack worked out
// by hand: A(5) B(3) A C(4) B.
func TestScanDistancesHandComputed(t *testing.T) {
	src := newSliceSource([]Request{req(0, 5), req(1, 3), req(0, 5), req(2, 4), req(1, 3)})
	var got []Distance
	Scan(src, func(i int, r Request, d Distance) { got = append(got, d) })
	want := []Distance{
		{Cold: true},
		{Cold: true},
		{Docs: 2, Bytes: 8}, // A: above = B(3), plus self 5
		{Cold: true},
		{Docs: 3, Bytes: 12}, // B: above = C(4) + A(5), plus self 3
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d: distance %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestComputeLRUHandComputed(t *testing.T) {
	src := newSliceSource([]Request{req(0, 5), req(1, 3), req(0, 5), req(2, 4), req(1, 3)})
	curves, err := ComputeLRU(src, Config{Capacities: []int64{12, 5, 8}}) // unsorted on purpose
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("got %d curves, want 3", len(curves))
	}
	type exp struct {
		capacity, hits, hitBytes, evictions int64
	}
	for i, e := range []exp{{5, 0, 0, 4}, {8, 1, 5, 2}, {12, 2, 8, 0}} {
		c := curves[i]
		img := c.ByClass[doctype.Image]
		if c.Capacity != e.capacity || img.Hits != e.hits || img.HitBytes != e.hitBytes {
			t.Errorf("curve %d: capacity %d hits %d hitBytes %d, want %+v",
				i, c.Capacity, img.Hits, img.HitBytes, e)
		}
		if img.Requests != 5 || img.ReqBytes != 20 {
			t.Errorf("curve %d: requests %d reqBytes %d, want 5/20", i, img.Requests, img.ReqBytes)
		}
		if c.Evictions != e.evictions {
			t.Errorf("curve %d (cap %d): evictions %d, want %d", i, c.Capacity, c.Evictions, e.evictions)
		}
	}
}

func TestComputeLRUModificationInvalidates(t *testing.T) {
	// A is resident at both capacities when the modification arrives; the
	// modified request is a miss everywhere and is counted as a
	// modification only where the stale copy was resident.
	reqs := []Request{
		req(0, 4),
		req(1, 2),
		{DocID: 0, Class: doctype.Image, Modified: true, DocSize: 4, TransferSize: 4},
		req(0, 4), // plain re-reference: a hit wherever the new copy fits
	}
	curves, err := ComputeLRU(newSliceSource(reqs), Config{Capacities: []int64{4, 10}})
	if err != nil {
		t.Fatal(err)
	}
	for i, wantMods := range []int64{0, 1} { // at cap 4, A (depth 2+4=6) was not resident
		if curves[i].Modifications != wantMods {
			t.Errorf("cap %d: modifications %d, want %d", curves[i].Capacity, curves[i].Modifications, wantMods)
		}
	}
	// The post-modification reference hits where the fresh copy survived:
	// depth 4 at cap 4 (B was pushed below... B(2) above? no: request 3
	// follows request 2 immediately, so A is on top: depth = 4).
	for i, wantHits := range []int64{1, 1} {
		if got := curves[i].ByClass[doctype.Image].Hits; got != wantHits {
			t.Errorf("cap %d: hits %d, want %d", curves[i].Capacity, got, wantHits)
		}
	}
}

func TestComputeLRUWarmup(t *testing.T) {
	src := newSliceSource([]Request{req(0, 5), req(1, 3), req(0, 5), req(2, 4), req(1, 3)})
	curves, err := ComputeLRU(src, Config{Capacities: []int64{12}, WarmupRequests: 3})
	if err != nil {
		t.Fatal(err)
	}
	img := curves[0].ByClass[doctype.Image]
	// Only requests 3 (C, cold) and 4 (B, hit at 12) are measured.
	if img.Requests != 2 || img.Hits != 1 || img.ReqBytes != 7 || img.HitBytes != 3 {
		t.Errorf("measured counts %+v, want Requests=2 Hits=1 ReqBytes=7 HitBytes=3", img)
	}
}

func TestComputeLRUValidation(t *testing.T) {
	src := newSliceSource([]Request{req(0, 5)})
	if _, err := ComputeLRU(src, Config{}); err == nil {
		t.Error("no capacities accepted")
	}
	if _, err := ComputeLRU(src, Config{Capacities: []int64{0, 5}}); err == nil {
		t.Error("non-positive capacity accepted")
	}
}

// refLRU is an independent, straightforward byte-capacity LRU simulator
// (recency list, demand eviction from the tail) used to cross-check the
// stack-distance engine on clean traces. It intentionally shares no code
// with internal/core.
type refLRU struct {
	capacity int64
	order    []int32 // most recent first
	size     map[int32]int64
	used     int64
}

func newRefLRU(capacity int64) *refLRU {
	return &refLRU{capacity: capacity, size: make(map[int32]int64)}
}

func (c *refLRU) touch(doc int32) {
	for i, d := range c.order {
		if d == doc {
			copy(c.order[1:i+1], c.order[:i])
			c.order[0] = doc
			return
		}
	}
}

func (c *refLRU) remove(doc int32) {
	for i, d := range c.order {
		if d == doc {
			c.order = append(c.order[:i], c.order[i+1:]...)
			c.used -= c.size[doc]
			delete(c.size, doc)
			return
		}
	}
}

// access returns whether the request hit.
func (c *refLRU) access(r Request) bool {
	_, resident := c.size[r.DocID]
	if resident && !r.Modified {
		c.used += r.DocSize - c.size[r.DocID]
		c.size[r.DocID] = r.DocSize
		c.touch(r.DocID)
		for c.used > c.capacity {
			tail := c.order[len(c.order)-1]
			c.remove(tail)
		}
		return true
	}
	if resident {
		c.remove(r.DocID)
	}
	if r.DocSize > c.capacity {
		return false
	}
	for c.used+r.DocSize > c.capacity {
		tail := c.order[len(c.order)-1]
		c.remove(tail)
	}
	c.order = append([]int32{r.DocID}, c.order...)
	c.size[r.DocID] = r.DocSize
	c.used += r.DocSize
	return false
}

// TestComputeLRUMatchesReferenceSimulator replays randomized clean traces
// (fixed per-document sizes, occasional modifications, every size below
// the smallest capacity) through both the stack-distance engine and the
// reference LRU; on such traces the engine must be bit-exact.
func TestComputeLRUMatchesReferenceSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		numDocs := 30 + rng.Intn(100)
		sizes := make([]int64, numDocs)
		for i := range sizes {
			sizes[i] = int64(1 + rng.Intn(500))
		}
		n := 2000
		reqs := make([]Request, n)
		for i := range reqs {
			d := int32(float64(numDocs) * rng.Float64() * rng.Float64())
			reqs[i] = Request{
				DocID:        d,
				Class:        doctype.Classes[int(d)%len(doctype.Classes)],
				Modified:     rng.Intn(50) == 0,
				DocSize:      sizes[d],
				TransferSize: sizes[d],
			}
		}
		// First access to a document is never a modification.
		seen := make([]bool, numDocs)
		for i := range reqs {
			if !seen[reqs[i].DocID] {
				reqs[i].Modified = false
				seen[reqs[i].DocID] = true
			}
		}
		src := newSliceSource(reqs)
		capacities := []int64{600, 1500, 4000, 12_000}
		curves, err := ComputeLRU(src, Config{Capacities: capacities})
		if err != nil {
			t.Fatal(err)
		}
		for ci, capacity := range capacities {
			ref := newRefLRU(capacity)
			var hits, hitBytes int64
			for _, r := range reqs {
				if ref.access(r) {
					hits++
					hitBytes += r.TransferSize
				}
			}
			var got Counts
			for _, cl := range doctype.Classes {
				got.Hits += curves[ci].ByClass[cl].Hits
				got.HitBytes += curves[ci].ByClass[cl].HitBytes
			}
			if got.Hits != hits || got.HitBytes != hitBytes {
				t.Fatalf("trial %d cap %d: mrc hits=%d hitBytes=%d, reference hits=%d hitBytes=%d",
					trial, capacity, got.Hits, got.HitBytes, hits, hitBytes)
			}
		}
	}
}
