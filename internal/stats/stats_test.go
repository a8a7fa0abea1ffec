package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDescriptive(t *testing.T) {
	tests := []struct {
		name                     string
		xs                       []float64
		mean, median, stdev, cov float64
	}{
		{"empty", nil, 0, 0, 0, 0},
		{"single", []float64{5}, 5, 5, 0, 0},
		{"pair", []float64{2, 4}, 3, 3, 1, 1.0 / 3},
		{"odd run", []float64{1, 2, 3, 4, 5}, 3, 3, math.Sqrt(2), math.Sqrt(2) / 3},
		{"constant", []float64{7, 7, 7}, 7, 7, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almostEqual(got, tt.mean, 1e-12) {
				t.Errorf("Mean = %v, want %v", got, tt.mean)
			}
			if got := Median(tt.xs); !almostEqual(got, tt.median, 1e-12) {
				t.Errorf("Median = %v, want %v", got, tt.median)
			}
			if got := StdDev(tt.xs); !almostEqual(got, tt.stdev, 1e-12) {
				t.Errorf("StdDev = %v, want %v", got, tt.stdev)
			}
			if got := CoV(tt.xs); !almostEqual(got, tt.cov, 1e-12) {
				t.Errorf("CoV = %v, want %v", got, tt.cov)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {-1, 10}, {2, 40},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 10 || xs[3] != 40 {
		t.Error("Quantile mutated its input")
	}
}

func TestFitLine(t *testing.T) {
	// Exact line y = 2x + 1.
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatalf("FitLine: %v", err)
	}
	if !almostEqual(fit.Slope, 2, 1e-12) || !almostEqual(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("single point fit should fail")
	}
	if _, err := FitLine([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("vertical line fit should fail")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths should fail")
	}
}

func TestFitPowerLaw(t *testing.T) {
	// y = 5 x^-0.8 with a few non-positive points that must be skipped.
	xs := []float64{1, 2, 4, 8, 16, -1, 0}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		if x > 0 {
			ys[i] = 5 * math.Pow(x, -0.8)
		}
	}
	fit, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatalf("FitPowerLaw: %v", err)
	}
	if !almostEqual(fit.Slope, -0.8, 1e-9) {
		t.Errorf("slope = %v, want -0.8", fit.Slope)
	}
	if fit.N != 5 {
		t.Errorf("N = %d, want 5 (non-positive points skipped)", fit.N)
	}
}

func TestLogHistogram(t *testing.T) {
	h, err := NewLogHistogram(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLogHistogram(1); err == nil {
		t.Error("base 1 should be rejected")
	}
	for _, x := range []float64{1, 1.5, 3, 5, 9, -2, 0} {
		h.Add(x)
	}
	if h.Total() != 5 {
		t.Errorf("Total = %d, want 5 (non-positive ignored)", h.Total())
	}
	centers, densities := h.Buckets()
	if len(centers) != len(densities) {
		t.Fatal("mismatched bucket slices")
	}
	for i := 1; i < len(centers); i++ {
		if centers[i] <= centers[i-1] {
			t.Error("bucket centers not increasing")
		}
	}
	h.Reset()
	if h.Total() != 0 {
		t.Error("Reset did not clear totals")
	}
}

// TestLogHistogramBucketMatchesLogarithm pins the bucket Add picks without
// a logarithm to the one the logarithm picks: for every integer below
// 2^24, around every power of two a float64 holds exactly (where the two
// rounded logarithms decide, and where past 2^47 the quotient for 2^k-1
// rounds up to k, which is why the short cut stops at 2^32), and on
// fractions and other bases, which never take the short cut.
func TestLogHistogramBucketMatchesLogarithm(t *testing.T) {
	h2, err := NewLogHistogram(2)
	if err != nil {
		t.Fatal(err)
	}
	ln2 := math.Log(2)
	check := func(x float64) {
		if got, want := h2.bucket(x), int(math.Log(x)/ln2); got != want {
			t.Fatalf("bucket(%v) = %d, the logarithm gives %d", x, got, want)
		}
	}
	limit := uint64(1) << 24
	if testing.Short() {
		limit = 1 << 18
	}
	for u := uint64(1); u < limit; u++ {
		check(float64(u))
	}
	for k := 1; k <= 52; k++ {
		p := float64(uint64(1) << k)
		check(p - 1)
		check(p)
		check(p + 1)
	}
	for _, x := range []float64{0.25, 0.5, 1.5, 2.5, 1023.5, 1<<32 - 0.5, 1e300} {
		check(x)
	}
	h10, err := NewLogHistogram(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 9, 10, 1000, 1024} {
		if got, want := h10.bucket(x), int(math.Log(x)/math.Log(10)); got != want {
			t.Errorf("base 10: bucket(%v) = %d, want %d", x, got, want)
		}
	}
}

func TestPopularityIndexRecoversZipf(t *testing.T) {
	// Construct counts that follow N(ρ) = round(C ρ^-α) exactly.
	for _, alpha := range []float64{0.6, 0.8, 1.0} {
		const docs = 5000
		counts := make([]int64, docs)
		for r := 1; r <= docs; r++ {
			counts[r-1] = int64(math.Round(1e5 * math.Pow(float64(r), -alpha)))
		}
		got, fit, err := PopularityIndex(counts)
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		if !almostEqual(got, alpha, 0.08) {
			t.Errorf("alpha=%v: estimated %v (fit %+v)", alpha, got, fit)
		}
	}
}

func TestPopularityIndexErrors(t *testing.T) {
	if _, _, err := PopularityIndex(nil); err == nil {
		t.Error("empty input should fail")
	}
	if _, _, err := PopularityIndex([]int64{5}); err == nil {
		t.Error("single document should fail")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		qa, qb := Quantile(xs, a), Quantile(xs, b)
		lo, hi := Quantile(xs, 0), Quantile(xs, 1)
		return qa <= qb && lo <= qa && qb <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
