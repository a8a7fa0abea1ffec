package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram counts observations into fixed, cumulative buckets and tracks
// their sum — the Prometheus histogram model. Buckets are chosen at
// registration and never change, so Observe is a binary search plus two
// atomic adds, cheap enough for per-request latency measurement.
type Histogram struct {
	desc
	upper   []float64      // ascending upper bounds; +Inf is implicit
	counts  []atomic.Int64 // len(upper)+1; last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram creates and registers a histogram with the given bucket
// upper bounds, which must be finite and strictly ascending (at least
// one). An implicit +Inf bucket catches everything above the last bound.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %s: no buckets", name))
	}
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	for i, b := range upper {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("metrics: histogram %s: non-finite bucket %v", name, b))
		}
		if i > 0 && b <= upper[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s: buckets not ascending at %v", name, b))
		}
	}
	h := &Histogram{
		desc:   desc{name: name, help: help},
		upper:  upper,
		counts: make([]atomic.Int64, len(upper)+1),
	}
	r.register(h)
	return h
}

// Observe records one sample. NaN observations are dropped — they would
// poison the sum without landing in any bucket.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// First bucket whose upper bound is >= v ("le" semantics); the +Inf
	// bucket (index len(upper)) catches the rest.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) writeText(w io.Writer) error {
	if err := h.header(w, "histogram"); err != nil {
		return err
	}
	var cum int64
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatFloat(ub), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.upper)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", h.name, h.Count())
	return err
}

// ExponentialBuckets returns n upper bounds starting at start (> 0), each
// factor (> 1) times the previous — the usual shape for latencies and
// object sizes.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("metrics: bad exponential buckets (start=%v factor=%v n=%d)", start, factor, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DefaultLatencyBuckets spans 1ms to ~16s in powers of two — wide enough
// for origin fetches over anything from loopback to a congested WAN.
func DefaultLatencyBuckets() []float64 {
	return ExponentialBuckets(0.001, 2, 15)
}

// DefaultSizeBuckets spans 256 B to 64 MB in powers of four, matching the
// document-size range the paper's traces exhibit.
func DefaultSizeBuckets() []float64 {
	return ExponentialBuckets(256, 4, 10)
}
