package trace

import (
	"fmt"
	"math"
	"testing"
)

func TestHash64Deterministic(t *testing.T) {
	if Hash64("http://e.com/a.gif") != Hash64("http://e.com/a.gif") {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64("http://e.com/a.gif") == Hash64("http://e.com/b.gif") {
		t.Fatal("distinct URLs collided (astronomically unlikely; hash broken)")
	}
}

// TestHash64Uniformity checks that the comparison Hash64 < R·2^64 keeps
// close to a fraction R of a large key population — the high-bit mixing
// ring and shard placement rely on.
func TestHash64Uniformity(t *testing.T) {
	const n = 200_000
	for _, rate := range []float64{0.1, 0.25, 0.5} {
		kept := 0
		for i := 0; i < n; i++ {
			if Hash64(fmt.Sprintf("http://host%d/path/%d.html", i%97, i)) < uint64(rate*float64(math.MaxUint64)) {
				kept++
			}
		}
		got := float64(kept) / n
		// 5 sigma for a binomial with p=rate.
		tol := 5 * math.Sqrt(rate*(1-rate)/n)
		if math.Abs(got-rate) > tol {
			t.Errorf("rate %.2f: kept fraction %.4f outside ±%.4f", rate, got, tol)
		}
	}
}

func TestHash64BytesMatchesHash64(t *testing.T) {
	for _, s := range []string{"", "a", "http://example.com/x.gif?q=1", "\x00\xff weird"} {
		if Hash64([]byte(s)) != Hash64(s) {
			t.Errorf("Hash64([]byte(%q)) != Hash64(%q)", s, s)
		}
	}
}
