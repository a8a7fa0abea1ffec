package synth

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestNewZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewZipf(10, 0); err == nil {
		t.Error("alpha 0 accepted")
	}
	z, err := NewZipf(100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if z.N() != 100 {
		t.Errorf("N = %d, want 100", z.N())
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z, err := NewZipf(1000, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 1000)
	const draws = 200_000
	for i := 0; i < draws; i++ {
		r := z.Sample(rng)
		if r < 0 || r >= 1000 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	// Rank 0 should dominate rank 99 by roughly 100^0.8 ≈ 40×.
	ratio := float64(counts[0]) / float64(counts[99]+1)
	if ratio < 15 || ratio > 120 {
		t.Errorf("rank-0/rank-99 ratio %v, want near 40", ratio)
	}
	// All the mass must be reachable: the least popular half still gets
	// some draws at this volume.
	var tail int
	for _, c := range counts[500:] {
		tail += c
	}
	if tail == 0 {
		t.Error("tail ranks never sampled")
	}
}

// TestZipfGuideMatchesSearch holds the guide-table inversion to the binary
// search it replaced, draw for draw: twin rngs must yield the same ranks,
// and so must every u at and one float beside each cumulative weight,
// where a guide entry off by one rank would show. Rounding can leave an
// entry a rank past a draw's answer, too rarely for any draw here to hit,
// so the walk is also checked from the next entry's start.
func TestZipfGuideMatchesSearch(t *testing.T) {
	for _, n := range []int{1, 2, 7, 4096, 100_000} {
		for _, alpha := range []float64{0.6, 1, 1.4} {
			z, err := NewZipf(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			guided, searched := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
			for d := 0; d < 1_000_000; d++ {
				got := z.Sample(guided)
				if want := sort.SearchFloat64s(z.cum, searched.Float64()*z.total); got != want {
					t.Fatalf("n=%d α=%v draw %d: rank %d, search says %d", n, alpha, d, got, want)
				}
			}
			beside := func(what string) {
				for _, c := range z.cum {
					f := c / z.total
					for _, f := range []float64{math.Nextafter(f, 0), f, math.Nextafter(f, 1)} {
						if f >= 1 {
							continue
						}
						if got, want := z.rank(f), sort.SearchFloat64s(z.cum, f*z.total); got != want {
							t.Fatalf("n=%d α=%v f=%v, %s: rank %d, search says %d", n, alpha, f, what, got, want)
						}
					}
				}
			}
			beside("guide as built")
			for k := range z.guide {
				z.guide[k] = z.guide[min(k+1, n-1)]
			}
			beside("guide a bucket ahead")
		}
	}
}

func TestZipfAlphaRecoverable(t *testing.T) {
	// The sampled frequencies should regress back to the configured
	// exponent (this is exactly how analyze measures α).
	rng := rand.New(rand.NewSource(2))
	for _, alpha := range []float64{0.6, 0.9} {
		z, err := NewZipf(2000, alpha)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int64, 2000)
		for i := 0; i < 400_000; i++ {
			counts[z.Sample(rng)]++
		}
		got, err := fitAlpha(counts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-alpha) > 0.12 {
			t.Errorf("alpha=%v: recovered %v", alpha, got)
		}
	}
}

// fitAlpha mirrors stats.PopularityIndex without the import cycle risk;
// kept local to the test.
func fitAlpha(counts []int64) (float64, error) {
	// Simple log-log fit over geometric rank bins.
	sorted := append([]int64(nil), counts...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] > sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var sx, sy, sxx, sxy float64
	var n float64
	for lo := 1; lo <= len(sorted); lo *= 2 {
		hi := lo * 2
		if hi > len(sorted)+1 {
			hi = len(sorted) + 1
		}
		var sum float64
		for r := lo; r < hi; r++ {
			sum += float64(sorted[r-1])
		}
		mean := sum / float64(hi-lo)
		if mean <= 0 {
			continue
		}
		x := math.Log(math.Sqrt(float64(lo) * float64(hi-1)))
		y := math.Log(mean)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	return -slope, nil
}

func TestSampleStackDistanceBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, beta := range []float64{0.5, 1.0, 1.3} {
		for _, maxD := range []int{1, 2, 100, 4096} {
			sd := newStackDistance(beta, maxD)
			for i := 0; i < 2000; i++ {
				d := sd.sample(rng)
				if d < 1 || d > maxD {
					t.Fatalf("beta=%v maxD=%d: distance %d out of bounds", beta, maxD, d)
				}
			}
		}
	}
}

func TestSampleStackDistanceSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	count := func(beta float64) (small, large int) {
		sd := newStackDistance(beta, 1024)
		for i := 0; i < 100_000; i++ {
			d := sd.sample(rng)
			if d <= 4 {
				small++
			}
			if d > 256 {
				large++
			}
		}
		return small, large
	}
	sSteep, lSteep := count(1.2)
	sFlat, lFlat := count(0.4)
	if sSteep <= sFlat {
		t.Errorf("steeper beta should prefer short distances: %d <= %d", sSteep, sFlat)
	}
	if lSteep >= lFlat {
		t.Errorf("steeper beta should avoid long distances: %d >= %d", lSteep, lFlat)
	}
}

func TestLogNormalCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l, err := NewLogNormal(10, 50) // median 10 KB, mean 50 KB
	if err != nil {
		t.Fatal(err)
	}
	n := 200_000
	var sum float64
	samples := make([]float64, n)
	for i := range samples {
		s := float64(l.Sample(rng))
		samples[i] = s
		sum += s
	}
	mean := sum / float64(n) / 1024
	if math.Abs(mean-50)/50 > 0.15 {
		t.Errorf("sample mean %v KB, want ≈50", mean)
	}
	// Median: count below 10 KB should be ≈ half.
	below := 0
	for _, s := range samples {
		if s < 10*1024 {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("fraction below median %v, want ≈0.5", frac)
	}
	if l.CoV() <= 0 {
		t.Error("CoV must be positive for mean > median")
	}
}

func TestLogNormalValidation(t *testing.T) {
	if _, err := NewLogNormal(0, 10); err == nil {
		t.Error("zero median accepted")
	}
	if _, err := NewLogNormal(10, 5); err == nil {
		t.Error("mean < median accepted")
	}
}

func TestLogNormalFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l, err := NewLogNormal(0.01, 0.02) // ≈10-byte median
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if s := l.Sample(rng); s < 64 {
			t.Fatalf("sample %d below 64-byte floor", s)
		}
	}
}
