package policy

import (
	"math"
	"math/rand"
	"strconv"
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
	e.Observe(&Doc{ID: 1})
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
			e.Observe(&Doc{ID: fillerBase + filler})
			clock++
			continue
		}
		pending = pending[1:]
		e.Observe(&Doc{ID: next.doc})
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
		e.Observe(&Doc{ID: 7})
	}
	if b := e.Beta(); b < betaFloor || b > betaCeil {
		t.Errorf("beta %v escaped clamp [%v, %v]", b, betaFloor, betaCeil)
	}
}

// TestBetaEstimatorPrunes streams cold documents, each referenced once,
// and then one hot document until a refit's horizon passes every cold
// reference: the table must then hold the hot document alone, by ID and
// by URL alike, or it would grow without bound under one-shot traffic.
func TestBetaEstimatorPrunes(t *testing.T) {
	const cold = 100_000
	for _, byURL := range []bool{false, true} {
		e := NewBetaEstimator()
		e.SetWindow(pruneDistance / 2)
		total := cold + pruneDistance + pruneDistance/2
		for i := 0; i < total; i++ {
			e.Observe(streamDoc(int32(min(i, cold)), byURL))
		}
		if got := e.Tracked(); got != 1 {
			t.Errorf("by URL %v: Tracked = %d after %d cold documents, want the hot one alone", byURL, got, cold)
		}
	}
}

// streamDoc is document id of a test stream: known by its ID, or by a
// URL alone as the store knows it.
func streamDoc(id int32, byURL bool) *Doc {
	if byURL {
		return &Doc{ID: -1, Key: strconv.Itoa(int(id))}
	}
	return &Doc{ID: id}
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

// TestBetaEstimatorMatchesMapReference runs the dense table, and the
// URL-keyed table a store document (ID -1) takes, against the map over a
// stream that crosses pruneDistance: hot documents that are never
// pruned, a cold pool whose re-reference distances straddle the prune
// horizon (pruned-then-seen-again must count as a first sighting), and
// the ID space growing as it goes. β must agree after every observation
// and the tracked count at every refit.
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
	dense, byURL := NewBetaEstimator(), NewBetaEstimator()
	dense.SetWindow(window)
	byURL.SetWindow(window)
	var keys []string // keys[id] is the URL the byURL estimator knows id by

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
		for int(id) >= len(keys) {
			keys = append(keys, strconv.Itoa(len(keys)))
		}
		ref.observe(id)
		dense.Observe(&Doc{ID: id})
		byURL.Observe(&Doc{ID: -1, Key: keys[id]})
		if dense.Beta() != ref.beta || byURL.Beta() != ref.beta {
			t.Fatalf("observation %d: beta %v by ID, %v by URL, reference %v", i, dense.Beta(), byURL.Beta(), ref.beta)
		}
		if i%window == 0 {
			refits++
			want := len(ref.lastSeen)
			if got, gotURL := dense.Tracked(), byURL.Tracked(); got != want || gotURL != want {
				t.Fatalf("refit %d: Tracked %d by ID, %d by URL, reference %d", refits, got, gotURL, want)
			}
			pruned = pruned || want < tracked // only pruning shrinks the table
			tracked = want
		}
	}
	for _, e := range []*BetaEstimator{dense, byURL} {
		if !e.Fitted() || e.Fitted() != ref.fitted {
			t.Errorf("Fitted = %v, reference %v, want both true", e.Fitted(), ref.fitted)
		}
		if e.invBeta != 1/e.beta {
			t.Errorf("cached 1/beta = %v, want %v", e.invBeta, 1/e.beta)
		}
	}
	if !pruned {
		t.Error("the stream never pruned a document; the test does not cover the horizon")
	}
}
