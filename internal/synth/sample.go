package synth

import (
	"fmt"
	"math"
	"math/rand"
)

// Zipf samples ranks 0..n-1 with probability proportional to
// (rank+1)^-alpha. Rank 0 is the most popular item. A draw is inverted
// over the cumulative weights from a guide table (Chen & Asau), O(1)
// expected, to exactly sort.SearchFloat64s's rank; it is deterministic
// given the caller's rand source.
type Zipf struct {
	cum   []float64
	guide []int32
	total float64
}

// NewZipf precomputes a sampler over n ranks with exponent alpha > 0.
func NewZipf(n int, alpha float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("synth: zipf size %d must be positive", n)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("synth: zipf alpha %v must be positive", alpha)
	}
	cum := make([]float64, n)
	var total float64
	for r := 0; r < n; r++ {
		total += math.Pow(float64(r+1), -alpha)
		cum[r] = total
	}
	// guide[k] is the first rank whose weight reaches k/n of the total.
	guide := make([]int32, n)
	for k, i := 0, 0; k < n; k++ {
		for cum[i] < float64(k)/float64(n)*total {
			i++
		}
		guide[k] = int32(i)
	}
	return &Zipf{cum: cum, guide: guide, total: total}, nil
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cum) }

// Sample draws a rank using rng.
func (z *Zipf) Sample(rng *rand.Rand) int { return z.rank(rng.Float64()) }

// rank inverts f in [0, 1): the smallest i with cum[i] ≥ f·total. Rounding
// may put the guide a rank past it, hence the first loop.
func (z *Zipf) rank(f float64) int {
	u := f * z.total
	i := int(z.guide[min(int(f*float64(len(z.cum))), len(z.cum)-1)])
	for i > 0 && z.cum[i-1] >= u {
		i--
	}
	for z.cum[i] < u {
		i++
	}
	return i
}

// stackDistance draws integer distances in [1, maxD] with density
// proportional to d^-beta, by inverse transform on the continuous
// truncated power law. It is the temporal-correlation engine: referencing
// the document at LRU-stack depth d with this distribution makes
// inter-reference distances follow P(n) ∝ n^-beta. The constants of the
// inverse are computed once per (beta, maxD).
type stackDistance struct {
	maxD int
	unit bool    // β = 1: F(d) = ln d / ln maxD
	a    float64 // maxD^(1−β) − 1
	inv  float64 // 1/(1−β)
}

func newStackDistance(beta float64, maxD int) stackDistance {
	s := stackDistance{maxD: maxD, unit: math.Abs(1-beta) < 1e-9}
	if !s.unit {
		oneMinus := 1 - beta
		s.a = math.Pow(float64(maxD), oneMinus) - 1
		s.inv = 1 / oneMinus
	}
	return s
}

// sample draws a distance using rng; a maxD of 1 or less draws nothing.
func (s stackDistance) sample(rng *rand.Rand) int {
	if s.maxD <= 1 {
		return 1
	}
	u := rng.Float64()
	var x float64
	if s.unit {
		x = math.Pow(float64(s.maxD), u)
	} else {
		x = math.Pow(u*s.a+1, s.inv)
	}
	return min(max(int(x), 1), s.maxD)
}

// LogNormal samples document sizes (in bytes) from a lognormal fitted to a
// target median and mean: median = e^μ and mean = e^(μ+σ²/2), so
// σ² = 2·ln(mean/median).
type LogNormal struct {
	mu    float64
	sigma float64
}

// NewLogNormal fits a sampler to the given median and mean in KB; mean
// must be at least the median (σ² ≥ 0).
func NewLogNormal(medianKB, meanKB float64) (*LogNormal, error) {
	if medianKB <= 0 {
		return nil, fmt.Errorf("synth: lognormal median %v must be positive", medianKB)
	}
	if meanKB < medianKB {
		return nil, fmt.Errorf("synth: lognormal mean %v below median %v", meanKB, medianKB)
	}
	return &LogNormal{
		mu:    math.Log(medianKB * 1024),
		sigma: math.Sqrt(2 * math.Log(meanKB/medianKB)),
	}, nil
}

// Sample draws a size in bytes, floored at 64 bytes.
func (l *LogNormal) Sample(rng *rand.Rand) int64 {
	s := int64(math.Exp(l.mu + l.sigma*rng.NormFloat64()))
	if s < 64 {
		s = 64
	}
	return s
}

// CoV returns the distribution's coefficient of variation,
// sqrt(e^σ² − 1), reported alongside the paper's Tables 4/5 values.
func (l *LogNormal) CoV() float64 {
	return math.Sqrt(math.Exp(l.sigma*l.sigma) - 1)
}
