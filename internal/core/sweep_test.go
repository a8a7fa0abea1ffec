package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"webcachesim/internal/policy"
	"webcachesim/internal/synth"
	"webcachesim/internal/trace"
)

func sweepWorkload(t testing.TB, n int) *Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	exts := []string{"gif", "html", "mp3", "pdf"}
	reqs := make([]*trace.Request, 0, n)
	for i := 0; i < n; i++ {
		id := int(float64(400) * rng.Float64() * rng.Float64())
		ext := exts[id%len(exts)]
		reqs = append(reqs, req(fmt.Sprintf("http://e.com/d%d.%s", id, ext), int64(200+rng.Intn(20_000))))
	}
	return build(t, 0, reqs...)
}

// TestSweepGridShapeAndOrder pins the result order, which holds by
// construction: policy (grid order), then admission (grid order), then
// capacity ascending, whatever order the capacities were given in.
func TestSweepGridShapeAndOrder(t *testing.T) {
	w := sweepWorkload(t, 3000)
	policies := policy.StudyFactories()[:3]
	caps := []int64{400_000, 100_000, 1_600_000} // deliberately unsorted
	for _, tc := range []struct {
		name       string
		admissions []policy.AdmitterFactory
		want       []string // Result.AdmissionName per admission, in grid order
	}{
		{"no admission axis", nil, []string{"none"}},
		{"two admissions", []policy.AdmitterFactory{rejectAllFactory(), policy.NoAdmission()}, []string{"reject-all", "none"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results, err := Sweep(w, SweepConfig{Policies: policies, Admissions: tc.admissions, Capacities: caps})
			if err != nil {
				t.Fatal(err)
			}
			if want := len(policies) * len(tc.want) * len(caps); len(results) != want {
				t.Fatalf("got %d results, want %d", len(results), want)
			}
			idx := 0
			for _, f := range policies {
				for _, adm := range tc.want {
					for _, c := range []int64{100_000, 400_000, 1_600_000} {
						r := results[idx]
						if r.Policy != f.Name || r.AdmissionName() != adm || r.Capacity != c {
							t.Errorf("result %d is %s/%s/%d, want %s/%s/%d",
								idx, r.Policy, r.AdmissionName(), r.Capacity, f.Name, adm, c)
						}
						idx++
					}
				}
			}
		})
	}
}

func TestSweepMatchesSerialRuns(t *testing.T) {
	w := sweepWorkload(t, 4000)
	policies := policy.StudyFactories()
	caps := []int64{100_000, 800_000}
	results, err := Sweep(w, SweepConfig{Policies: policies, Capacities: caps, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		var f policy.Factory
		for _, cand := range policies {
			if cand.Name == r.Policy {
				f = cand
			}
		}
		s, err := NewSimulator(w, Config{Capacity: r.Capacity, Policy: f})
		if err != nil {
			t.Fatal(err)
		}
		serial := s.Run(w)
		if !reflect.DeepEqual(serial, r) {
			t.Errorf("%s @%d: parallel result diverges from serial\n got %+v\nwant %+v",
				r.Policy, r.Capacity, r, serial)
		}
	}
}

// dfnWorkload is a 20,000-request synthetic DFN stream with its sizes
// inferred from the bytes sent, as in a Squid log: it has modifications,
// transfers interrupted and later completed, and large documents.
func dfnWorkload(t *testing.T) *Workload {
	t.Helper()
	reqs, err := synth.Generate(synth.DFNProfile(), synth.Options{Seed: 5, Requests: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		r.DocSize = 0
	}
	return build(t, 0, reqs...)
}

// checkLRUAgainstOracle sweeps LRU over the ascending capacities and
// requires every Result to equal that of the §3 reference cache
// (paper_reference_test.go), field for field.
func checkLRUAgainstOracle(t *testing.T, w *Workload, capacities []int64, warmupFraction float64) {
	t.Helper()
	lru := lruFactory()
	got, err := Sweep(w, SweepConfig{Policies: []policy.Factory{lru}, Capacities: capacities, WarmupFraction: warmupFraction})
	if err != nil {
		t.Fatal(err)
	}
	warmup, err := resolveWarmup(warmupFraction, w.NumRequests())
	if err != nil {
		t.Fatal(err)
	}
	for i, capacity := range capacities {
		ref := &paperCache{value: lruValue, capacity: capacity, warmup: warmup, docs: map[int32]*paperDoc{}}
		for j := 0; j < w.NumRequests(); j++ {
			ref.process(w.Event(j))
		}
		if want := ref.result(lru.Name); !reflect.DeepEqual(got[i], want) {
			t.Errorf("LRU @%d: simulator diverges from the reference\n got %+v\nwant %+v", capacity, got[i], want)
		}
	}
}

// TestSweepLRUMatchesOracle sweeps LRU over the DFN stream at capacities
// below and above its largest document. Without warm-up the stream's first
// requests are measured, so the refusal to insert an oversized document
// counts from request 0.
func TestSweepLRUMatchesOracle(t *testing.T) {
	w := dfnWorkload(t)
	capacities := []int64{w.CapacityAt(0.25, 0), w.CapacityAt(1, 0), w.CapacityAt(8, 0)}
	for name, warmupFraction := range map[string]float64{"default warmup": 0, "no warmup": -1} {
		t.Run(name, func(t *testing.T) { checkLRUAgainstOracle(t, w, capacities, warmupFraction) })
	}
}

// TestSweepLRUMatchesOracleRandomTraces repeats the comparison over
// reuseWorkload's random streams, which shrink and recharge documents,
// alternating the default warm-up and none.
func TestSweepLRUMatchesOracleRandomTraces(t *testing.T) {
	for trial := int64(0); trial < 8; trial++ {
		w := reuseWorkload(t, 10+trial)
		checkLRUAgainstOracle(t, w, []int64{
			50_000 + trial*10_000,
			w.DistinctBytes() / 4,
			w.DistinctBytes(),
		}, -float64(trial%2))
	}
}

func TestSweepValidation(t *testing.T) {
	w := sweepWorkload(t, 10)
	if _, err := Sweep(w, SweepConfig{Capacities: []int64{100}}); err == nil {
		t.Error("sweep without policies accepted")
	}
	if _, err := Sweep(w, SweepConfig{Policies: policy.StudyFactories()}); err == nil {
		t.Error("sweep without capacities accepted")
	}
	for name, capacities := range map[string][]int64{
		"zero capacity":        {0},
		"negative capacity":    {100, -1},
		"duplicate capacities": {200, 100, 200},
	} {
		_, err := Sweep(w, SweepConfig{Policies: policy.StudyFactories(), Capacities: capacities})
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: got %v, want ErrBadConfig", name, err)
		}
	}
	nan := SweepConfig{Policies: policy.StudyFactories(), Capacities: []int64{100}, WarmupFraction: math.NaN()}
	if _, err := Sweep(w, nan); !errors.Is(err, ErrBadConfig) {
		t.Errorf("NaN warmup: got %v, want ErrBadConfig", err)
	}
}

func TestSweepRejectsBadPolicySets(t *testing.T) {
	w := sweepWorkload(t, 100)
	lru := policy.StudyFactories()[0]
	dup := SweepConfig{
		Policies:   []policy.Factory{lru, lru},
		Capacities: []int64{1000, 2000},
	}
	if _, err := Sweep(w, dup); err == nil {
		t.Error("duplicate policy names accepted")
	}
	nilNew := SweepConfig{
		Policies:   []policy.Factory{{Name: "broken"}},
		Capacities: []int64{1000},
	}
	if _, err := Sweep(w, nilNew); err == nil {
		t.Error("nil policy constructor accepted")
	}
}

func TestCurveExtraction(t *testing.T) {
	w := sweepWorkload(t, 2000)
	policies := policy.StudyFactories()[:2]
	caps := []int64{100_000, 200_000, 400_000}
	results, err := Sweep(w, SweepConfig{Policies: policies, Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrid(results, nil)
	hr := func(r *Result) float64 { return r.Overall.HitRate() }
	xs, ys := g.CurveMB("LRU", hr)
	if len(xs) != 3 || len(ys) != 3 {
		t.Fatalf("curve has %d points, want 3", len(xs))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Error("curve capacities not ascending")
		}
	}
	if xs[0] != 100_000.0/(1<<20) || ys[0] != g.At("LRU", 100_000).Overall.HitRate() {
		t.Errorf("curve starts at (%v MB, %v), want the 100 kB LRU cell", xs[0], ys[0])
	}
	if len(g.Series) != 2 || g.Series[0] != policies[0].Name || len(g.Capacities) != 3 {
		t.Errorf("grid has series %v × capacities %v", g.Series, g.Capacities)
	}
	if xs2, _ := g.CurveMB("NOPE", nil); xs2 != nil {
		t.Error("unknown policy should yield empty curve")
	}
	if v := g.Value("LRU", 12345, hr); !math.IsNaN(v) {
		t.Errorf("missing cell reads %v, want NaN", v)
	}
}

// TestGridSeriesInFirstAppearanceOrder: a grid's series come out in the
// order the results first name them, on every call; tables and curves are
// printed in that order.
func TestGridSeriesInFirstAppearanceOrder(t *testing.T) {
	var results []*Result
	var want []string
	for i := range 8 {
		want = append(want, fmt.Sprintf("p%d", i))
		results = append(results, &Result{Policy: want[i], Capacity: 1})
	}
	for range 20 {
		if got := NewGrid(results, nil).Series; !reflect.DeepEqual(got, want) {
			t.Fatalf("Series = %v, want %v", got, want)
		}
	}
}
