package experiment

import (
	"testing"

	"webcachesim/internal/core"
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
		"LRU":             {9000, 1973, 11708246, 7666},
		"LFU-DA":          {9000, 2347, 12896859, 7263},
		"GDS(1)":          {9000, 3092, 10727313, 6249},
		"GD*(1)":          {9000, 3394, 11786379, 5985},
		"GDS(P)":          {9000, 2297, 11166831, 7263},
		"GD*(P)":          {9000, 2790, 13100063, 6731},
		"GDSF(P)":         {9000, 2790, 13100063, 6731},
		"SLRU":            {9000, 2355, 12110026, 7240},
		"FIFO":            {9000, 1790, 10805368, 7866},
		"SIZE":            {9000, 2937, 6808617, 6238},
		"LFU":             {9000, 2564, 13159465, 7002},
		"TA[GD*(1)]":      {9000, 3195, 11583548, 6207},
		"TA[GD*(P)]":      {9000, 2876, 12458734, 6637},
		"GDSF(1)":         {9000, 3394, 11786379, 5985},
		"GD*(1) beta=0.5": {9000, 3499, 10370076, 5806},
	}
	if len(goldens) != len(baselineLineup) {
		t.Fatalf("%d goldens for %d lineup schemes", len(goldens), len(baselineLineup))
	}
	for _, f := range baselineLineup {
		sim, err := core.NewSimulator(w, core.Config{Capacity: capacity, Policy: f})
		if err != nil {
			t.Fatal(err)
		}
		r := sim.Run(w)
		got := counts{r.Overall.Requests, r.Overall.Hits, r.Overall.HitBytes, r.Evictions}
		if want := goldens[f.Name]; got != want {
			t.Errorf("%s: got %+v, want %+v", f.Name, got, want)
		}
	}
}
