package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
	"webcachesim/internal/trace"
)

func lruFactory() policy.Factory {
	return policy.MustFactory(policy.Spec{Scheme: "lru"})
}

// checkedFactory runs f's policies under policy.Checked, which panics with
// a policy.ContractError on the first violation of the Policy contract.
func checkedFactory(f policy.Factory) policy.Factory {
	return policy.Factory{Name: f.Name, New: func() policy.Policy { return policy.Checked(f.Name, f.New()) }}
}

func newSim(t *testing.T, w *Workload, cfg Config) *Simulator {
	t.Helper()
	if cfg.Policy.New == nil {
		cfg.Policy = lruFactory()
	}
	s, err := NewSimulator(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCountsRates pins the two ratios every table and every scrape read
// through ReadCounts report, including the zero-traffic case.
func TestCountsRates(t *testing.T) {
	var c Counts
	if c.HitRate() != 0 || c.ByteHitRate() != 0 {
		t.Error("zero counts should rate 0")
	}
	c = Counts{Requests: 4, Hits: 1, ReqBytes: 100, HitBytes: 25}
	if c.HitRate() != 0.25 || c.ByteHitRate() != 0.25 {
		t.Errorf("rates = %v, %v", c.HitRate(), c.ByteHitRate())
	}
}

func TestSimulatorBasicHitMiss(t *testing.T) {
	w := build(t, 0,
		req("http://e.com/a.gif", 100), // miss
		req("http://e.com/a.gif", 100), // hit
		req("http://e.com/b.gif", 100), // miss
		req("http://e.com/a.gif", 100), // hit
	)
	s := newSim(t, w, Config{Capacity: 1000, WarmupFraction: -1})
	r := s.Run(w)
	if r.Overall.Requests != 4 || r.Overall.Hits != 2 {
		t.Errorf("overall = %+v, want 4 requests 2 hits", r.Overall)
	}
	if got := r.Overall.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
	if got := r.Overall.ByteHitRate(); got != 0.5 {
		t.Errorf("byte hit rate = %v, want 0.5", got)
	}
	img := r.ByClass[doctype.Image]
	if img.Requests != 4 || img.Hits != 2 {
		t.Errorf("image class = %+v", img)
	}
}

func TestSimulatorWarmupExcluded(t *testing.T) {
	reqs := make([]*trace.Request, 10)
	for i := range reqs {
		reqs[i] = req("http://e.com/same.gif", 100)
	}
	w := build(t, 0, reqs...)
	s := newSim(t, w, Config{Capacity: 1000, WarmupFraction: 0.5})
	r := s.Run(w)
	if r.WarmupRequests != 5 {
		t.Fatalf("WarmupRequests = %d, want 5", r.WarmupRequests)
	}
	if r.Overall.Requests != 5 {
		t.Errorf("measured requests = %d, want 5", r.Overall.Requests)
	}
	// All measured requests hit (the doc is resident after warm-up).
	if r.Overall.Hits != 5 {
		t.Errorf("hits = %d, want 5", r.Overall.Hits)
	}
}

func TestSimulatorDefaultWarmup(t *testing.T) {
	reqs := make([]*trace.Request, 100)
	for i := range reqs {
		reqs[i] = req(fmt.Sprintf("http://e.com/d%d.gif", i), 10)
	}
	w := build(t, 0, reqs...)
	s := newSim(t, w, Config{Capacity: 10_000})
	r := s.Run(w)
	if r.WarmupRequests != 10 {
		t.Errorf("default warmup = %d, want 10%% of 100", r.WarmupRequests)
	}
}

func TestSimulatorCapacityEnforced(t *testing.T) {
	var reqs []*trace.Request
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		reqs = append(reqs, req(fmt.Sprintf("http://e.com/d%d.bin", rng.Intn(100)), int64(100+rng.Intn(5000))))
	}
	w := build(t, 0, reqs...)
	const capacity = 20_000
	s := newSim(t, w, Config{Capacity: capacity, WarmupFraction: -1})
	for i := 0; i < w.NumRequests(); i++ {
		ev := w.Event(i)
		s.Process(&ev)
		if s.Used() > capacity {
			t.Fatalf("after event %d: used %d exceeds capacity %d", i, s.Used(), capacity)
		}
	}
	if s.Result().Evictions == 0 {
		t.Error("expected evictions under pressure")
	}
}

func TestSimulatorModificationIsMiss(t *testing.T) {
	w := build(t, 0,
		req("http://e.com/a.html", 100), // miss
		req("http://e.com/a.html", 102), // modified: miss
		req("http://e.com/a.html", 102), // hit
	)
	s := newSim(t, w, Config{Capacity: 1000, WarmupFraction: -1})
	r := s.Run(w)
	if r.Overall.Hits != 1 {
		t.Errorf("hits = %d, want 1", r.Overall.Hits)
	}
	if r.Modifications != 1 {
		t.Errorf("modifications = %d, want 1", r.Modifications)
	}
}

func TestSimulatorOversizedDocNotCached(t *testing.T) {
	w := build(t, 0,
		req("http://e.com/huge.iso", 10_000),
		req("http://e.com/huge.iso", 10_000),
	)
	s := newSim(t, w, Config{Capacity: 1000, WarmupFraction: -1})
	r := s.Run(w)
	if r.Overall.Hits != 0 {
		t.Errorf("hits = %d, want 0 (doc larger than cache)", r.Overall.Hits)
	}
	if r.Uncachable != 2 {
		t.Errorf("Uncachable = %d, want 2", r.Uncachable)
	}
	if s.Used() != 0 {
		t.Errorf("used = %d, want 0", s.Used())
	}
}

func TestSimulatorRechargeAfterInterruption(t *testing.T) {
	// Interrupted transfer cached small, then the full size arrives: the
	// resident copy is recharged to the larger size and occupancy grows.
	w := build(t, 0,
		req("http://e.com/movie.mpg", 1_000),
		req("http://e.com/movie.mpg", 500_000),
	)
	s := newSim(t, w, Config{Capacity: 1_000_000, WarmupFraction: -1})
	r := s.Run(w)
	if r.Overall.Hits != 1 {
		t.Errorf("hits = %d, want 1 (interruption is not a modification)", r.Overall.Hits)
	}
	if s.Used() != 500_000 {
		t.Errorf("used = %d, want 500000 after recharge", s.Used())
	}
}

func TestSimulatorRechargeEvictsWhenGrown(t *testing.T) {
	w := build(t, 0,
		req("http://e.com/small.gif", 400),
		req("http://e.com/movie.mpg", 1_000),
		req("http://e.com/movie.mpg", 900), // -10%: interruption, keeps 1000
		req("http://e.com/movie.mpg", 1_000),
	)
	s := newSim(t, w, Config{Capacity: 1_500, WarmupFraction: -1})
	r := s.Run(w)
	if s.Used() > 1_500 {
		t.Errorf("used = %d exceeds capacity", s.Used())
	}
	_ = r
}

func TestSimulatorOccupancySampling(t *testing.T) {
	var reqs []*trace.Request
	for i := 0; i < 100; i++ {
		reqs = append(reqs, req(fmt.Sprintf("http://e.com/i%d.gif", i), 50))
		reqs = append(reqs, req(fmt.Sprintf("http://e.com/p%d.pdf", i), 200))
	}
	w := build(t, 0, reqs...)
	s := newSim(t, w, Config{Capacity: 100_000, WarmupFraction: -1, SampleEvery: 50})
	r := s.Run(w)
	if len(r.Occupancy) != 4 {
		t.Fatalf("got %d samples, want 4", len(r.Occupancy))
	}
	last := r.Occupancy[len(r.Occupancy)-1]
	if last.TotalDocs != 200 {
		t.Errorf("TotalDocs = %d, want 200", last.TotalDocs)
	}
	if got := last.DocFraction(doctype.Image); got != 50 {
		t.Errorf("image doc fraction = %v%%, want 50", got)
	}
	wantBytes := 100.0 * (100 * 50) / (100*50 + 100*200)
	if got := last.ByteFraction(doctype.Image); got != wantBytes {
		t.Errorf("image byte fraction = %v%%, want %v", got, wantBytes)
	}
}

func TestSimulatorConfigValidation(t *testing.T) {
	w := build(t, 0, req("http://e.com/a.gif", 1))
	if _, err := NewSimulator(w, Config{Capacity: 0, Policy: lruFactory()}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewSimulator(w, Config{Capacity: 100}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := NewSimulator(w, Config{Capacity: 100, Policy: lruFactory(), WarmupFraction: 1.5}); err == nil {
		t.Error("warmup >= 1 accepted")
	}
	if _, err := NewSimulator(w, Config{Capacity: 100, Policy: lruFactory(), WarmupFraction: math.NaN()}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("NaN warmup: got %v, want ErrBadConfig", err)
	}
}

func TestSimulatorOverallEqualsClassSum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	exts := []string{"gif", "html", "mp3", "pdf", "xyz"}
	var reqs []*trace.Request
	for i := 0; i < 2000; i++ {
		ext := exts[rng.Intn(len(exts))]
		url := fmt.Sprintf("http://e.com/d%d.%s", rng.Intn(300), ext)
		reqs = append(reqs, req(url, int64(10+rng.Intn(10_000))))
	}
	w := build(t, 0, reqs...)
	for _, f := range policy.StudyFactories() {
		s := newSim(t, w, Config{Capacity: 200_000, Policy: f})
		r := s.Run(w)
		var sum Counts
		for _, c := range doctype.Classes {
			sum.add(r.ByClass[c])
		}
		if sum != r.Overall {
			t.Errorf("%s: overall %+v != class sum %+v", f.Name, r.Overall, sum)
		}
		if r.Overall.Hits > r.Overall.Requests {
			t.Errorf("%s: hits exceed requests", f.Name)
		}
		if r.Overall.HitBytes > r.Overall.ReqBytes {
			t.Errorf("%s: hit bytes exceed requested bytes", f.Name)
		}
	}
}

// TestSimulatorCapacityInvariantAllPolicies drives every study policy
// with a pressure workload and asserts occupancy never exceeds capacity.
func TestSimulatorCapacityInvariantAllPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var reqs []*trace.Request
	for i := 0; i < 3000; i++ {
		size := int64(100 + rng.Intn(50_000))
		if rng.Intn(10) == 0 {
			size = int64(500_000 + rng.Intn(500_000)) // occasional giants
		}
		reqs = append(reqs, req(fmt.Sprintf("http://e.com/d%d.bin", rng.Intn(400)), size))
	}
	w := build(t, 0, reqs...)
	const capacity = 1_000_000
	for _, f := range policy.StudyFactories() {
		s := newSim(t, w, Config{Capacity: capacity, Policy: f, WarmupFraction: -1})
		for i := 0; i < w.NumRequests(); i++ {
			ev := w.Event(i)
			s.Process(&ev)
			if s.Used() > capacity {
				t.Fatalf("%s: used %d exceeds capacity after event %d", f.Name, s.Used(), i)
			}
			if s.Used() < 0 {
				t.Fatalf("%s: negative occupancy after event %d", f.Name, i)
			}
		}
	}
}

// brokenPolicy refuses to evict while claiming to track documents — an
// adversarial implementation that must not hang or overfill the cache.
type brokenPolicy struct{ n int }

func (b *brokenPolicy) Insert(*policy.Doc)         { b.n++ }
func (b *brokenPolicy) Hit(*policy.Doc)            {}
func (b *brokenPolicy) Evict() (*policy.Doc, bool) { return nil, false }
func (b *brokenPolicy) Peek() (*policy.Doc, bool)  { return nil, false }
func (b *brokenPolicy) Remove(*policy.Doc)         { b.n-- }
func (b *brokenPolicy) Len() int                   { return b.n }

func TestSimulatorSurvivesNonEvictingPolicy(t *testing.T) {
	w := build(t, 0,
		req("http://e.com/a.bin", 600),
		req("http://e.com/b.bin", 600), // does not fit; policy refuses to evict
		req("http://e.com/a.bin", 600),
	)
	f := policy.Factory{Name: "broken", New: func() policy.Policy { return &brokenPolicy{} }}
	s := newSim(t, w, Config{Capacity: 1000, Policy: f, WarmupFraction: -1})
	r := s.Run(w) // must terminate
	if s.Used() > 1000 {
		t.Errorf("capacity exceeded with adversarial policy: %d", s.Used())
	}
	// a.bin stays resident (inserted first); the re-reference hits.
	if r.Overall.Hits != 1 {
		t.Errorf("hits = %d, want 1", r.Overall.Hits)
	}
}

// TestSimulatorRechargeSurvivesNonEvictingPolicy: a resident document
// that grows past the capacity asks the policy for room, and a policy with
// nothing to give must end that loop too, not hand back a nil victim.
func TestSimulatorRechargeSurvivesNonEvictingPolicy(t *testing.T) {
	w := build(t, 0,
		req("http://e.com/movie.mpg", 100),
		req("http://e.com/b.bin", 800),
		req("http://e.com/movie.mpg", 600), // completes the transfer: 1,400 bytes resident
	)
	f := policy.Factory{Name: "broken", New: func() policy.Policy { return &brokenPolicy{} }}
	s := newSim(t, w, Config{Capacity: 1000, Policy: f, WarmupFraction: -1})
	if r := s.Run(w); r.Overall.Hits != 1 || s.Used() != 1400 {
		t.Errorf("hits = %d, used = %d; want 1 and 1400 (the policy freed nothing)", r.Overall.Hits, s.Used())
	}
}

func TestProcessOutcomes(t *testing.T) {
	w := build(t, 0,
		req("http://e.com/a.gif", 100),
		req("http://e.com/a.gif", 100),
		req("http://e.com/a.gif", 102), // 2% change: modified
	)
	s := newSim(t, w, Config{Capacity: 1000, WarmupFraction: -1})
	want := []Outcome{OutcomeMiss, OutcomeHit, OutcomeModified}
	for i := 0; i < w.NumRequests(); i++ {
		ev := w.Event(i)
		if got := s.Process(&ev); got != want[i] {
			t.Errorf("event %d outcome = %v, want %v", i, got, want[i])
		}
	}
	if !OutcomeHit.Hit() || OutcomeMiss.Hit() || OutcomeModified.Hit() {
		t.Error("Outcome.Hit misclassifies")
	}
}

func TestOutcomeString(t *testing.T) {
	for _, tt := range []struct {
		o    Outcome
		want string
	}{
		{OutcomeHit, "hit"},
		{OutcomeMiss, "miss"},
		{OutcomeModified, "modified"},
		{Outcome(0), "Outcome(0)"},
		{Outcome(7), "Outcome(7)"},
	} {
		if got := fmt.Sprintf("%v", tt.o); got != tt.want {
			t.Errorf("%%v of Outcome %d = %q, want %q", uint8(tt.o), got, tt.want)
		}
	}
}

func TestLargerCacheNeverHurtsHitRateMuch(t *testing.T) {
	// Hit rate should grow (log-like, per the paper) with cache size for
	// stack-friendly policies like LRU. Allow tiny non-monotonicity for
	// the value-based schemes, which are not stack algorithms.
	rng := rand.New(rand.NewSource(12))
	var reqs []*trace.Request
	for i := 0; i < 5000; i++ {
		// Zipf-ish popularity over 500 docs.
		id := int(float64(500) * rng.Float64() * rng.Float64())
		reqs = append(reqs, req(fmt.Sprintf("http://e.com/d%d.gif", id), int64(500+rng.Intn(5000))))
	}
	w := build(t, 0, reqs...)
	var prev float64
	for i, capacity := range []int64{50_000, 200_000, 800_000, 3_200_000} {
		s := newSim(t, w, Config{Capacity: capacity})
		r := s.Run(w)
		hr := r.Overall.HitRate()
		if i > 0 && hr < prev-1e-9 {
			t.Errorf("LRU hit rate fell from %v to %v at capacity %d", prev, hr, capacity)
		}
		prev = hr
	}
	if prev == 0 {
		t.Error("no hits at the largest cache size")
	}
}

// TestSimulatorSelfCheckCleanPolicies replays a random workload with every
// study policy under policy.Checked: the contract checker must stay silent
// and must not change any measured number.
func TestSimulatorSelfCheckCleanPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var reqs []*trace.Request
	for i := 0; i < 3000; i++ {
		size := int64(100 + rng.Intn(50_000))
		reqs = append(reqs, req(fmt.Sprintf("http://e.com/d%d.bin", rng.Intn(300)), size))
	}
	w := build(t, 0, reqs...)
	for _, f := range policy.StudyFactories() {
		plain := newSim(t, w, Config{Capacity: 800_000, Policy: f, WarmupFraction: -1})
		checked := newSim(t, w, Config{Capacity: 800_000, Policy: checkedFactory(f), WarmupFraction: -1})
		rp, rc := plain.Run(w), checked.Run(w)
		if !reflect.DeepEqual(rp, rc) {
			t.Errorf("%s: the checker changed results: %+v vs %+v", f.Name, rp, rc)
		}
	}
}
