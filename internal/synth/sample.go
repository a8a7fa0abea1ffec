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

// SampleStackDistance draws an integer distance in [1, maxD] with density
// proportional to d^-beta, by inverse transform on the continuous
// truncated power law. It is the temporal-correlation engine: referencing
// the document at LRU-stack depth d with this distribution makes
// inter-reference distances follow P(n) ∝ n^-beta.
func SampleStackDistance(rng *rand.Rand, beta float64, maxD int) int {
	if maxD <= 1 {
		return 1
	}
	u := rng.Float64()
	m := float64(maxD)
	var x float64
	if math.Abs(1-beta) < 1e-9 {
		// β = 1: F(d) = ln d / ln m.
		x = math.Pow(m, u)
	} else {
		oneMinus := 1 - beta
		x = math.Pow(u*(math.Pow(m, oneMinus)-1)+1, 1/oneMinus)
	}
	d := int(x)
	if d < 1 {
		d = 1
	}
	if d > maxD {
		d = maxD
	}
	return d
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
