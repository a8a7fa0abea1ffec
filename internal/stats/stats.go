// Package stats provides the statistical machinery used by the workload
// characterization and the synthetic generator: descriptive statistics
// (mean, median, coefficient of variation, quantiles), log-log
// least-squares regression for estimating the popularity index α and the
// temporal-correlation index β, and logarithmic histograms.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// ErrInsufficientData reports that an estimator was given fewer samples
// than it needs to produce a defined result.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when fewer than two
// samples are present.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoV returns the coefficient of variation (standard deviation divided by
// mean) of xs, or 0 when the mean is zero.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Median returns the median of xs without modifying it, or 0 for an empty
// slice. For even-length input it returns the mean of the two central
// order statistics.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It copies xs and leaves the input
// unmodified. It returns 0 for an empty slice; q is clamped into [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinearFit holds the result of an ordinary least-squares straight-line
// fit y = Intercept + Slope·x, along with the coefficient of determination.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// FitLine fits a straight line to (xs[i], ys[i]) by ordinary least squares.
// It returns ErrInsufficientData when fewer than two points are given or
// all xs are identical.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: mismatched lengths %d and %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, ErrInsufficientData
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}, ErrInsufficientData
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	// R² = 1 - SSres/SStot.
	ssTot := syy - sy*sy/n
	var ssRes float64
	for i := range xs {
		r := ys[i] - (intercept + slope*xs[i])
		ssRes += r * r
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2, N: len(xs)}, nil
}

// FitPowerLaw fits y = k·x^slope by least squares on log-log axes,
// discarding non-positive points (which have no logarithm). The returned
// slope is the power-law exponent. It returns ErrInsufficientData when
// fewer than two positive points remain.
func FitPowerLaw(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: mismatched lengths %d and %d", len(xs), len(ys))
	}
	lx := make([]float64, 0, len(xs))
	ly := make([]float64, 0, len(ys))
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	return FitLine(lx, ly)
}

// LogHistogram counts observations into geometrically spaced buckets:
// bucket i covers [base^i, base^(i+1)). It is used to tabulate
// inter-reference distances for the temporal-correlation estimator.
type LogHistogram struct {
	base    float64
	logBase float64
	counts  []int64
	total   int64
	pow2    [32]int8 // pow2[k] = int(math.Log(2^k) / logBase)
}

// NewLogHistogram creates a histogram with the given geometric base
// (> 1, e.g. 2 for octave buckets).
func NewLogHistogram(base float64) (*LogHistogram, error) {
	if base <= 1 {
		return nil, fmt.Errorf("stats: log histogram base %v must be > 1", base)
	}
	h := &LogHistogram{base: base, logBase: math.Log(base)}
	for k := range h.pow2 {
		h.pow2[k] = int8(math.Log(float64(uint64(1)<<k)) / h.logBase)
	}
	return h, nil
}

// bucket returns int(math.Log(x) / h.logBase) for x > 0, without the
// logarithm for an integer below 2^32 at base 2 (the β estimator's request
// distances): strictly between 2^k and 2^(k+1) the base-2 logarithm is
// 3e-10 or more from both, a million times the quotient's rounding error,
// so it truncates to k; at 2^k, where rounding decides, pow2 holds it.
func (h *LogHistogram) bucket(x float64) int {
	if u := uint64(x); h.base == 2 && x < 1<<32 && float64(u) == x {
		k := bits.Len64(u) - 1
		if u&(u-1) == 0 {
			return int(h.pow2[k])
		}
		return k
	}
	return int(math.Log(x) / h.logBase)
}

// Add counts one observation; non-positive values are ignored.
func (h *LogHistogram) Add(x float64) {
	if x <= 0 {
		return
	}
	i := h.bucket(x)
	if i < 0 {
		i = 0
	}
	for i >= len(h.counts) {
		h.counts = append(h.counts, 0)
	}
	h.counts[i]++
	h.total++
}

// Total returns the number of counted observations.
func (h *LogHistogram) Total() int64 { return h.total }

// Buckets returns, for each non-empty bucket, its geometric center and
// its count normalized by bucket width (a density), which is the quantity
// regressed against distance when estimating β.
func (h *LogHistogram) Buckets() (centers, densities []float64) {
	centers = make([]float64, 0, len(h.counts))
	densities = make([]float64, 0, len(h.counts))
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo := math.Pow(h.base, float64(i))
		hi := math.Pow(h.base, float64(i+1))
		centers = append(centers, math.Sqrt(lo*hi))
		densities = append(densities, float64(c)/(hi-lo))
	}
	return centers, densities
}

// Reset clears the histogram for reuse.
func (h *LogHistogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
}
