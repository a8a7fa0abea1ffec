package policy

import (
	"math"
	"math/rand"
	"testing"

	"webcachesim/internal/stats"
)

func TestBetaEstimatorDefaults(t *testing.T) {
	e := NewBetaEstimator()
	if e.Beta() != 1 {
		t.Errorf("initial beta = %v, want 1", e.Beta())
	}
	if e.Fitted() {
		t.Error("fresh estimator claims to be fitted")
	}
	e.Observe(1)
	if e.Observed() != 1 || e.Tracked() != 1 {
		t.Errorf("Observed=%d Tracked=%d, want 1,1", e.Observed(), e.Tracked())
	}
}

// feedPowerLawStream drives the estimator with a stream whose
// inter-reference distances follow n^-beta and returns the estimate.
func feedPowerLawStream(e *BetaEstimator, beta float64, n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	sample := func() int64 {
		u := rng.Float64()
		maxDist := 2048.0
		oneMinus := 1 - beta
		return int64(math.Pow(u*(math.Pow(maxDist, oneMinus)-1)+1, 1/oneMinus))
	}
	// Schedule re-references on a virtual timeline. Documents take IDs
	// 0..59; filler one-shot documents use the ID space above fillerBase.
	const fillerBase = 1 << 16
	type ev struct {
		at  int64
		doc int32
	}
	heapLess := func(a, b ev) bool { return a.at < b.at }
	var pending []ev
	push := func(e ev) {
		pending = append(pending, e)
		for i := len(pending) - 1; i > 0 && heapLess(pending[i], pending[i-1]); i-- {
			pending[i], pending[i-1] = pending[i-1], pending[i]
		}
	}
	// Few enough documents that queueing on the single-request-per-tick
	// timeline does not distort the scheduled distances.
	for d := 0; d < 60; d++ {
		push(ev{at: int64(rng.Intn(500)), doc: int32(d)})
	}
	var clock int64
	filler := int32(0)
	for i := 0; i < n && len(pending) > 0; i++ {
		next := pending[0]
		if clock < next.at {
			filler++
			e.Observe(fillerBase + filler)
			clock++
			continue
		}
		pending = pending[1:]
		e.Observe(next.doc)
		clock++
		push(ev{at: clock + sample(), doc: next.doc})
	}
	return e.Beta()
}

func TestBetaEstimatorConverges(t *testing.T) {
	e := NewBetaEstimator()
	e.SetWindow(20_000)
	got := feedPowerLawStream(e, 0.8, 120_000, 5)
	if !e.Fitted() {
		t.Fatal("estimator never fitted")
	}
	if got < 0.45 || got > 1.25 {
		t.Errorf("beta estimate %v, want near 0.8", got)
	}
}

func TestBetaEstimatorDistinguishesWorkloads(t *testing.T) {
	strong := NewBetaEstimator()
	strong.SetWindow(20_000)
	weak := NewBetaEstimator()
	weak.SetWindow(20_000)
	bStrong := feedPowerLawStream(strong, 0.95, 120_000, 6)
	bWeak := feedPowerLawStream(weak, 0.45, 120_000, 6)
	if bStrong <= bWeak {
		t.Errorf("estimator cannot separate workloads: strong %v <= weak %v",
			bStrong, bWeak)
	}
}

func TestBetaEstimatorClamped(t *testing.T) {
	e := NewBetaEstimator()
	e.SetWindow(1_000)
	// A stream with constant distance 1 between references (the same doc
	// over and over) gives a degenerate single-bucket histogram: the fit
	// fails or clamps, but beta must stay within bounds.
	for i := 0; i < 10_000; i++ {
		e.Observe(7)
	}
	if b := e.Beta(); b < betaFloor || b > betaCeil {
		t.Errorf("beta %v escaped clamp [%v, %v]", b, betaFloor, betaCeil)
	}
}

func TestBetaEstimatorPrunes(t *testing.T) {
	e := NewBetaEstimator()
	e.SetWindow(pruneDistance / 2)
	// Stream of unique documents: the table would grow without bound if
	// pruning were broken.
	total := int(pruneDistance*2 + 10)
	for i := 0; i < total; i++ {
		e.Observe(int32(i))
	}
	if e.Tracked() >= total {
		t.Errorf("Tracked = %d, want pruned below %d", e.Tracked(), total)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		x, lo, hi, want float64
	}{
		{0.5, 0.1, 2, 0.5},
		{0.05, 0.1, 2, 0.1},
		{3, 0.1, 2, 2},
	}
	for _, tt := range tests {
		if got := clamp(tt.x, tt.lo, tt.hi); got != tt.want {
			t.Errorf("clamp(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

// mapBetaEstimator is the estimator as it was before the dense last-seen
// table: a map keyed by doc ID, pruned by walking it at every refit. It is
// the reference the dense table's O(1) prune is held to.
type mapBetaEstimator struct {
	lastSeen   map[int32]int64
	hist       *stats.LogHistogram
	clock      int64
	nextRefit  int64
	refitEvery int64
	beta       float64
	fitted     bool
}

func (e *mapBetaEstimator) observe(id int32) {
	e.clock++
	if last, ok := e.lastSeen[id]; ok {
		e.hist.Add(float64(e.clock - last))
	}
	e.lastSeen[id] = e.clock
	if e.clock < e.nextRefit {
		return
	}
	e.nextRefit = e.clock + e.refitEvery
	if e.hist.Total() >= defaultMinSamples {
		centers, densities := e.hist.Buckets()
		if fit, err := stats.FitPowerLaw(centers, densities); err == nil {
			b := clamp(-fit.Slope, betaFloor, betaCeil)
			if e.fitted {
				e.beta = (1-betaSmoothing)*e.beta + betaSmoothing*b
			} else {
				e.beta = b
				e.fitted = true
			}
		}
	}
	e.hist.Reset()
	horizon := e.clock - pruneDistance
	if horizon <= 0 {
		return
	}
	for k, last := range e.lastSeen {
		if last < horizon {
			delete(e.lastSeen, k)
		}
	}
}

// TestBetaEstimatorMatchesMapReference runs the dense table against the
// map over a stream that crosses pruneDistance: hot documents that are
// never pruned, a cold pool whose re-reference distances straddle the
// prune horizon (pruned-then-seen-again must count as a first sighting),
// and the ID space growing as it goes. β must agree after every
// observation and the tracked count at every refit.
func TestBetaEstimatorMatchesMapReference(t *testing.T) {
	const window = 100_000
	hist, err := stats.NewLogHistogram(2)
	if err != nil {
		t.Fatal(err)
	}
	ref := &mapBetaEstimator{
		lastSeen: make(map[int32]int64), hist: hist,
		refitEvery: window, nextRefit: window, beta: 1,
	}
	e := NewBetaEstimator()
	e.SetWindow(window)

	rng := rand.New(rand.NewSource(11))
	const coldPool = 400_000 // mean re-reference distance ≈ pruneDistance
	total := int(pruneDistance*2 + pruneDistance/2)
	refits, tracked, pruned := 0, 0, false
	for i := 1; i <= total; i++ {
		var id int32
		switch r := rng.Intn(10); {
		case r < 5:
			id = int32(rng.Intn(64))
		case r < 8:
			id = 64 + int32(rng.Intn(50_000))
		default:
			id = 64 + 50_000 + int32(rng.Intn(min(coldPool, i)))
		}
		ref.observe(id)
		e.Observe(id)
		if e.Beta() != ref.beta {
			t.Fatalf("observation %d: beta %v, reference %v", i, e.Beta(), ref.beta)
		}
		if i%window == 0 {
			refits++
			got, want := e.Tracked(), len(ref.lastSeen)
			if got != want {
				t.Fatalf("refit %d: Tracked %d, reference %d", refits, got, want)
			}
			pruned = pruned || got < tracked // only pruning shrinks the table
			tracked = got
		}
	}
	if !e.Fitted() || e.Fitted() != ref.fitted {
		t.Errorf("Fitted = %v, reference %v, want both true", e.Fitted(), ref.fitted)
	}
	if !pruned {
		t.Error("the stream never pruned a document; the test does not cover the horizon")
	}
	if e.invBeta != 1/e.beta {
		t.Errorf("cached 1/beta = %v, want %v", e.invBeta, 1/e.beta)
	}
}
