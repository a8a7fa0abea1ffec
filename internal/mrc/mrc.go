// Package mrc computes LRU miss-ratio curves in one pass over a request
// stream: a single Mattson-style stack-distance scan instead of a
// per-cache-size grid of full replays. The simulator does not call it; it
// is the independent implementation of byte-capacity LRU that
// internal/core's tests hold the simulator against.
//
// The classical observation (Mattson et al. 1970) is that LRU is a stack
// algorithm: at every cache size the resident set is a prefix of the
// recency stack, so a request hits at capacity C iff its reuse distance —
// the volume of distinct documents touched since the previous request to
// the same document — is at most C. One scan therefore yields the exact
// hit-rate and byte-hit-rate curves at arbitrarily many capacities.
//
// Web documents have sizes, which makes the byte variant of the criterion
// ("resident iff the bytes of more recently used documents plus the
// document's own size fit in C") slightly weaker than true per-cell
// simulation: variable-size LRU is not strictly an inclusion policy. The
// divergences are confined to three trace conditions — documents larger
// than the capacity (never inserted by the simulator, but still pushed
// onto the stack here), a resident document's size changing between
// requests without a modification (the simulator's recharge path, which
// can even evict the document itself), and a document's recorded size
// shrinking (which lowers the stack depth of everything beneath it and
// would resurrect documents a demand-eviction cache has already dropped).
// All three are detectable from the trace alone, so a caller can decide
// when the scan is bit-exact. See docs/MRC.md for the argument;
// internal/core's lru_oracle_test.go checks them on its fixtures.
//
// The scan keeps two Fenwick trees indexed by last-access position: one
// accumulating distinct-document counts, one accumulating resident bytes.
// Each request's document- and byte-reuse distances are two prefix sums,
// giving O(n log n) for the whole curve instead of O(n · |capacities|)
// replays.
package mrc

import (
	"fmt"
	"sort"

	"webcachesim/internal/container/fenwick"
	"webcachesim/internal/doctype"
)

// Request is one preprocessed trace event, mirroring the fields of the
// simulator's event stream that the stack-distance scan needs.
type Request struct {
	// DocID is the dense document identifier (0 ≤ DocID < NumDocs).
	DocID int32
	// Class is the document's content class (per-class curve accounting).
	Class doctype.Class
	// Modified marks a request that invalidates the cached copy: always a
	// miss, after which the document re-enters the stack top.
	Modified bool
	// DocSize is the full document size charged against capacity.
	DocSize int64
	// TransferSize is the number of bytes delivered, counted toward byte
	// hit rate.
	TransferSize int64
}

// Source is a random-access request stream: a thin adapter over
// core.Workload in that package's tests, a slice here.
type Source interface {
	NumRequests() int
	NumDocs() int
	Request(i int) Request
}

// Distance is the reuse distance of one request: the inclusive LRU stack
// depth of the document's previous copy at access time. The copy was
// resident in a cache of byte capacity C iff Bytes ≤ C; for a
// non-modified request that residency is a hit, for a modified request it
// locates where the invalidation removed a cached copy.
type Distance struct {
	// Docs is the stack depth in documents: the number of distinct
	// documents accessed since the previous access to this document,
	// including the document itself.
	Docs int64
	// Bytes is the stack depth in bytes: the recorded sizes of the more
	// recently accessed documents plus the previous copy's recorded size.
	Bytes int64
	// Cold marks a first access (no previous copy, hence no finite
	// distance); Docs and Bytes are zero.
	Cold bool
}

// Scan replays the stream once, invoking fn for every request with its
// reuse distance. The scan charges each document at the size its most
// recent event recorded, matching the simulator's occupancy accounting.
func Scan(src Source, fn func(i int, r Request, d Distance)) {
	n := src.NumRequests()
	lastPos := make([]int32, src.NumDocs())
	for i := range lastPos {
		lastPos[i] = -1
	}
	lastSize := make([]int64, src.NumDocs())
	docs := fenwick.New(n)
	bytes := fenwick.New(n)
	for i := 0; i < n; i++ {
		r := src.Request(i)
		d := Distance{Cold: true}
		if p := lastPos[r.DocID]; p >= 0 {
			d = Distance{
				Docs:  docs.Range(int(p)+1, i) + 1,
				Bytes: bytes.Range(int(p)+1, i) + lastSize[r.DocID],
			}
			docs.Add(int(p), -1)
			bytes.Add(int(p), -lastSize[r.DocID])
		}
		docs.Add(i, 1)
		bytes.Add(i, r.DocSize)
		lastPos[r.DocID] = int32(i)
		lastSize[r.DocID] = r.DocSize
		fn(i, r, d)
	}
}

// Config parameterizes ComputeLRU.
type Config struct {
	// Capacities are the cache sizes in bytes; they need not be sorted or
	// unique. Every capacity must be positive.
	Capacities []int64
	// WarmupRequests is the number of initial requests excluded from the
	// measured counts (the caller resolves warmup fractions against the
	// stream length, exactly as the per-cell simulator does).
	WarmupRequests int64
}

// Counts accumulates hit/byte-hit bookkeeping for one class at one
// capacity, mirroring the simulator's result shape.
type Counts struct {
	Requests, Hits, ReqBytes, HitBytes int64
}

// Curve is the outcome of LRU at one capacity, assembled from the scan.
type Curve struct {
	// Capacity is the cache size in bytes.
	Capacity int64
	// ByClass breaks the measured requests down by document class
	// (index 0, Unknown, stays zero).
	ByClass [doctype.NumClasses + 1]Counts
	// Evictions counts replacement victims over the whole run, warmup
	// included, derived from flow conservation: every insert that was
	// neither invalidated away nor still resident at the end was evicted.
	Evictions int64
	// Modifications counts measured requests that invalidated a resident
	// copy.
	Modifications int64
	// Uncachable counts measured requests to documents larger than the
	// capacity (and not served from cache).
	Uncachable int64
}

// ComputeLRU runs one stack-distance scan and returns the LRU curve at
// every requested capacity, sorted ascending with duplicates collapsed.
//
// Per-capacity dispositions are accumulated in difference arrays over the
// sorted capacity list — each request costs O(log n) for the distance
// query plus O(log |capacities|) to locate its thresholds — and a single
// prefix pass at the end materializes the curves.
func ComputeLRU(src Source, cfg Config) ([]*Curve, error) {
	if len(cfg.Capacities) == 0 {
		return nil, fmt.Errorf("mrc: no capacities")
	}
	caps := append([]int64(nil), cfg.Capacities...)
	sort.Slice(caps, func(i, j int) bool { return caps[i] < caps[j] })
	caps = dedupe(caps)
	if caps[0] <= 0 {
		return nil, fmt.Errorf("mrc: capacity %d must be positive", caps[0])
	}
	k := len(caps)
	// capIdx returns the index of the smallest capacity ≥ v, or k when v
	// exceeds every capacity.
	capIdx := func(v int64) int {
		return sort.Search(k, func(i int) bool { return caps[i] >= v })
	}

	type classDiff struct {
		hits, hitBytes int64
	}
	var (
		base    [doctype.NumClasses + 1]Counts                 // capacity-independent counts
		hitSfx  = make([][doctype.NumClasses + 1]classDiff, k) // suffix adds at index
		modSfx  = make([]int64, k)                             // measured modifications
		remSfx  = make([]int64, k)                             // all invalidating removals (warmup too)
		insDiff = make([]int64, k+1)                           // inserts, range form
		uncDiff = make([]int64, k+1)                           // measured uncachable, range form
		warmup  = cfg.WarmupRequests

		// Track per-document last access for the end-of-run residency
		// walk (Evictions needs the final stack).
		lastPos  = make([]int32, src.NumDocs())
		lastSize = make([]int64, src.NumDocs())
	)
	for i := range lastPos {
		lastPos[i] = -1
	}

	Scan(src, func(i int, r Request, d Distance) {
		measured := int64(i) >= warmup
		// Index of the smallest capacity at which the previous copy was
		// resident; k when it never was (cold, or deeper than every
		// capacity).
		resFrom := k
		if !d.Cold {
			resFrom = capIdx(d.Bytes)
		}
		sizeIdx := capIdx(r.DocSize) // smallest capacity the document fits in

		if measured {
			c := int(r.Class)
			base[c].Requests++
			base[c].ReqBytes += r.TransferSize
			if !r.Modified && resFrom < k {
				hitSfx[resFrom][c].hits++
				hitSfx[resFrom][c].hitBytes += r.TransferSize
			}
		}

		if r.Modified {
			// Invalidation: the resident copy (where there was one) is
			// removed, then the new copy is inserted wherever it fits.
			if resFrom < k {
				remSfx[resFrom]++
				if measured {
					modSfx[resFrom]++
				}
			}
			if sizeIdx < k {
				insDiff[sizeIdx]++
			}
			if measured && sizeIdx > 0 {
				uncDiff[0]++
				uncDiff[sizeIdx]--
			}
		} else {
			// Plain request: a miss (insert) at capacities below the
			// residency threshold, bounded below by the document having
			// to fit; a hit above it.
			if sizeIdx < resFrom {
				insDiff[sizeIdx]++
				insDiff[resFrom]--
			}
			if measured {
				// Uncachable: the document exceeds C and the request was
				// not served from cache there.
				if end := min(sizeIdx, resFrom); end > 0 {
					uncDiff[0]++
					uncDiff[end]--
				}
			}
		}

		lastPos[r.DocID] = int32(i)
		lastSize[r.DocID] = r.DocSize
	})

	finalDepths := finalStackDepths(lastPos, lastSize)

	curves := make([]*Curve, k)
	var hitAcc [doctype.NumClasses + 1]classDiff
	var modAcc, remAcc, insAcc, uncAcc int64
	for idx := 0; idx < k; idx++ {
		insAcc += insDiff[idx]
		uncAcc += uncDiff[idx]
		modAcc += modSfx[idx]
		remAcc += remSfx[idx]
		cv := &Curve{Capacity: caps[idx]}
		for _, cl := range doctype.Classes {
			hitAcc[cl].hits += hitSfx[idx][cl].hits
			hitAcc[cl].hitBytes += hitSfx[idx][cl].hitBytes
			cv.ByClass[cl] = Counts{
				Requests: base[cl].Requests,
				ReqBytes: base[cl].ReqBytes,
				Hits:     hitAcc[cl].hits,
				HitBytes: hitAcc[cl].hitBytes,
			}
		}
		cv.Modifications = modAcc
		cv.Uncachable = uncAcc
		// Residents at end of run: documents whose final stack depth fits.
		nRes := int64(sort.Search(len(finalDepths),
			func(i int) bool { return finalDepths[i] > caps[idx] }))
		cv.Evictions = insAcc - remAcc - nRes
		curves[idx] = cv
	}
	return curves, nil
}

// finalStackDepths returns the inclusive byte depth of every document on
// the stack after the last request, sorted ascending. A document is
// resident in a cache of capacity C at end of run iff its depth is ≤ C.
func finalStackDepths(lastPos []int32, lastSize []int64) []int64 {
	type posSize struct {
		pos  int32
		size int64
	}
	active := make([]posSize, 0, len(lastPos))
	for d, p := range lastPos {
		if p >= 0 {
			active = append(active, posSize{p, lastSize[d]})
		}
	}
	sort.Slice(active, func(i, j int) bool { return active[i].pos > active[j].pos })
	depths := make([]int64, len(active))
	var cum int64
	for i, a := range active {
		cum += a.size
		depths[i] = cum
	}
	// Depths are cumulative sums of non-negative sizes, so already sorted
	// ascending.
	return depths
}

func dedupe(sorted []int64) []int64 {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}
