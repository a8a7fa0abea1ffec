package experiment

import (
	"testing"

	"webcachesim/internal/core"
	"webcachesim/internal/policy"
)

// TestGoldenDeterminism pins exact counts for every scheme of the
// baselines lineup at Scale 0.02, Seed 1 and a cache of 2 % of the
// distinct bytes. Simulation is pure integer counting over a seeded
// generator, so any change in these numbers means the workload model or a
// policy changed behaviour — which must be a conscious decision (update
// the constants and note it in EXPERIMENTS.md), never drift.
func TestGoldenDeterminism(t *testing.T) {
	e := NewEnv(Options{Scale: 0.02, Seed: 1})
	w, err := e.Workload("dfn")
	if err != nil {
		t.Fatal(err)
	}
	capacity := int64(0.02 * float64(w.DistinctBytes()))

	type counts struct{ Requests, Hits, HitBytes, Evictions int64 }
	goldens := map[string]counts{
		"lru":                {9000, 1973, 11708246, 7666},
		"lfuda":              {9000, 2347, 12896859, 7263},
		"gds:1":              {9000, 3092, 10727313, 6249},
		"gdstar:1":           {9000, 3394, 11786379, 5985},
		"gds:p":              {9000, 2297, 11166831, 7263},
		"gdstar:p":           {9000, 2790, 13100063, 6731},
		"gdsf:p":             {9000, 2790, 13100063, 6731},
		"slru":               {9000, 2355, 12110026, 7240},
		"fifo":               {9000, 1790, 10805368, 7866},
		"size":               {9000, 2937, 6808617, 6238},
		"lfu":                {9000, 2564, 13159465, 7002},
		"typeaware+gdstar:1": {9000, 3195, 11583548, 6207},
	}
	if len(goldens) != len(baselineLineup) {
		t.Fatalf("%d goldens for %d lineup specs", len(goldens), len(baselineLineup))
	}
	for _, spec := range baselineLineup {
		parsed, err := policy.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		f, err := policy.NewFactory(parsed)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := core.NewSimulator(w, core.Config{Capacity: capacity, Policy: f})
		if err != nil {
			t.Fatal(err)
		}
		r := sim.Run(w)
		got := counts{r.Overall.Requests, r.Overall.Hits, r.Overall.HitBytes, r.Evictions}
		if want := goldens[spec]; got != want {
			t.Errorf("%q: got %+v, want %+v", spec, got, want)
		}
	}
}
