package policy

import (
	"math"
	"testing"
)

// poisonCost is a degenerate cost model that yields 0 for empty documents
// and +Inf otherwise. Combined with GD*'s H = L + (f·c/s)^(1/β) it
// produces exactly the IEEE edge cases finiteH must absorb:
// Pow(0, 1/β) is fine, but 0·Inf and Inf/Inf style intermediates are NaN.
type poisonCost struct{}

func (poisonCost) Cost(size int64) float64 {
	if size == 0 {
		return 0
	}
	return math.Inf(1)
}
func (poisonCost) Tag() string  { return "X" }
func (poisonCost) Name() string { return "poison" }

// nanCost returns NaN for every document.
type nanCost struct{}

func (nanCost) Cost(int64) float64 { return math.NaN() }
func (nanCost) Tag() string        { return "N" }
func (nanCost) Name() string       { return "nan" }

func priorityOf(t *testing.T, d *Doc) float64 {
	t.Helper()
	return d.hm.item.Priority()
}

func TestFiniteH(t *testing.T) {
	cases := []struct {
		h, floor, want float64
	}{
		{1.5, 0, 1.5},
		{math.NaN(), 7, 7},
		{math.Inf(1), 0, math.MaxFloat64},
		{math.Inf(-1), 0, -math.MaxFloat64},
		{0, 3, 0},
	}
	for _, c := range cases {
		if got := finiteH(c.h, c.floor); got != c.want {
			t.Errorf("finiteH(%v, %v) = %v, want %v", c.h, c.floor, got, c.want)
		}
	}
}

// A zero-byte document under a cost model that can return 0 or NaN must
// never push a non-finite priority into the eviction heap. Regression
// test for the H computation: GD* raises f·c/s to 1/β with math.Pow, and
// Pow of degenerate bases produces NaN/Inf that used to enter the heap
// unchecked.
func TestZeroByteDocPriorityStaysFinite(t *testing.T) {
	policies := map[string]Policy{
		"gds-poison":    NewGDS(poisonCost{}),
		"gdstar-poison": NewGDStar(poisonCost{}, 0.8),
		"gdstar-nan":    NewGDStar(nanCost{}, 0.8),
	}
	for name, p := range policies {
		t.Run(name, func(t *testing.T) {
			zero := doc("empty", 0)
			big := doc("big", 1<<20)
			p.Insert(zero)
			p.Insert(big)
			for _, d := range []*Doc{zero, big} {
				if h := priorityOf(t, d); math.IsNaN(h) {
					t.Errorf("doc %q has NaN priority", d.Key)
				}
			}
			p.Hit(zero)
			if h := priorityOf(t, zero); math.IsNaN(h) {
				t.Errorf("NaN priority after hit")
			}
			// The heap must still drain completely and in a valid order.
			n := p.Len()
			for i := 0; i < n; i++ {
				if _, ok := p.Evict(); !ok {
					t.Fatalf("Evict failed with %d docs left", p.Len())
				}
			}
		})
	}
}

// GD* with a NaN-poisoned victim must keep the inflation offset L finite:
// L is set from the evicted priority, and a NaN L would poison every
// subsequent insertion.
func TestGDStarAgeStaysFinite(t *testing.T) {
	p := NewGDStar(nanCost{}, 1)
	p.Insert(doc("a", 100))
	p.Insert(doc("b", 200))
	if _, ok := p.Evict(); !ok {
		t.Fatal("Evict failed")
	}
	if math.IsNaN(p.Age()) || math.IsInf(p.Age(), 0) {
		t.Errorf("inflation offset L = %v, want finite", p.Age())
	}
}

// Non-positive or non-finite beta must fall back to the online estimator
// instead of producing a 1/β exponent that flips or destroys the order.
func TestGDStarDegenerateBetaUsesEstimator(t *testing.T) {
	for _, beta := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		p := NewGDStar(ConstantCost{}, beta)
		if p.estimator == nil {
			t.Errorf("beta=%v: estimator not engaged", beta)
		}
		if b := p.Beta(); !(b > 0) {
			t.Errorf("beta=%v: effective Beta() = %v, want positive", beta, b)
		}
	}
}

// No beta= spelling is accepted, the degenerate ones included: a fixed
// exponent is NewGDStar's argument, not a spec option.
func TestParseSpecRejectsNegativeBeta(t *testing.T) {
	for _, bad := range []string{"gdstar:packet:beta=-0.5", "gdstar:beta=nan", "gdstar:beta=inf", "gdstar:p:beta=-inf", "gdstar:beta=NaN", "gdstar:packet:beta=0.8"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}
