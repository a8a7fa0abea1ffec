package cache_test

import (
	"fmt"
	"testing"

	"webcachesim/internal/admission"
	"webcachesim/internal/cache"
	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
	"webcachesim/internal/synth"
)

// differentialWorkload is a DFN stream of n requests with every transfer
// complete: no document grows while resident, the one path
// (core.Simulator's recharge) a live store has no counterpart for.
// Modifications and documents larger than the smaller capacity remain,
// and it returns the two capacities replayed: 0.5 % and 4 % of the
// distinct bytes.
func differentialWorkload(t *testing.T, n int) (*core.Workload, []int64) {
	t.Helper()
	prof := synth.DFNProfile()
	for i := range prof.Classes {
		prof.Classes[i].InterruptProb = 0
	}
	g, err := synth.NewGenerator(prof, synth.Options{Seed: 7, Requests: n})
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.BuildWorkload(g.Reader(), 0)
	if err != nil {
		t.Fatal(err)
	}
	capacities := []int64{w.CapacityAt(0.5, 0), w.CapacityAt(4, 0)}
	var modified, oversized bool
	for i := 0; i < w.NumRequests(); i++ {
		ev := w.Event(i)
		modified = modified || ev.Modified
		oversized = oversized || ev.DocSize > capacities[0]
	}
	if !modified || !oversized {
		t.Fatalf("workload misses a path: modified %v, larger than the cache %v", modified, oversized)
	}
	return w, capacities
}

// TestStoreMatchesSimulator replays one workload through core.Simulator
// and through a one-shard store driven as the proxy drives it: Get, and
// on a miss Insert; a modified document is Remove, then Insert. With one
// shard the store is the simulator's machine, so every request must have
// the same outcome on both sides — for every scheme core.Sweep knows,
// under every admission filter — and the occupancy and the admitter's
// counts must end equal.
//
// GD*'s β estimator first refits after 50,000 references, so on 30,000
// requests GD* would run as GDSF. Its rows replay 300,000 requests
// (85,144 documents, far more than either capacity holds), so most
// documents return after an eviction, and the store's estimator, keyed
// by URL, must remember them as the simulator's, keyed by dense ID, does.
// The simulator's and the store's instances must end with the same β,
// moved off 1.
func TestStoreMatchesSimulator(t *testing.T) {
	short, shortCaps := differentialWorkload(t, 30_000)
	long, longCaps := differentialWorkload(t, 300_000)
	for _, spec := range []string{
		"lru", "lfuda", "gds:1", "gds:p", "gdstar:1", "gdstar:p", "gdsf:1", "gdsf:p",
		"fifo", "size", "lfu", "slru", "typeaware+gdstar:1", "typeaware+lru",
	} {
		parsed, err := policy.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		pol := policy.MustFactory(parsed)
		w, capacities, adapts := short, shortCaps, spec == "gdstar:1" || spec == "gdstar:p"
		if adapts {
			w, capacities = long, longCaps
		}
		t.Run(spec, func(t *testing.T) {
			t.Parallel() // the workloads are immutable and shared, as a sweep's is
			for _, adm := range admission.Specs() {
				for _, capacity := range capacities {
					var made []policy.Policy
					rec := policy.Factory{Name: pol.Name, New: func() policy.Policy {
						p := pol.New()
						made = append(made, p)
						return p
					}}
					if err := replayBoth(w, rec, adm, capacity); err != nil {
						t.Errorf("%s/%d: %v", adm.Name, capacity, err)
					}
					if !adapts {
						continue
					}
					if len(made) != 2 {
						t.Fatalf("%s/%d: %d policy instances, want the simulator's and the store's", adm.Name, capacity, len(made))
					}
					sim, store := made[0].(*policy.GreedyDual).Beta(), made[1].(*policy.GreedyDual).Beta()
					if sim == 1 || store == 1 || sim != store {
						t.Errorf("%s/%d: β after %d requests: simulator %v, store %v; want both equal and moved off 1",
							adm.Name, capacity, w.NumRequests(), sim, store)
					}
				}
			}
		})
	}
}

// replayBoth runs w through a simulator and a one-shard store of one
// configuration and reports the first way they part.
func replayBoth(w *core.Workload, pol policy.Factory, adm policy.AdmitterFactory, capacity int64) error {
	n := w.NumRequests()
	sim, err := core.NewSimulator(w, core.Config{
		Capacity: capacity, Policy: pol, Admission: adm, WarmupFraction: -1, SampleEvery: int64(n),
	})
	if err != nil {
		return err
	}
	store, err := cache.New(cache.Config{Capacity: capacity, Shards: 1, Policy: pol, Admission: adm})
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		ev := w.Event(i)
		key := w.Key(ev.DocID)
		simHit := sim.Process(&ev).Hit()
		storeHit := false
		if ev.Modified {
			store.Remove(key)
		} else if e, ok := store.Get(key); ok {
			e.Release()
			storeHit = true
		}
		if !storeHit {
			store.Insert(key, &cache.Entry{Doc: &policy.Doc{Key: key, Size: ev.DocSize, Class: ev.Class}})
		}
		if simHit != storeHit {
			return fmt.Errorf("request %d (%s, %d B, modified %v): simulator hit %v, store hit %v",
				i, key, ev.DocSize, ev.Modified, simHit, storeHit)
		}
	}

	r := sim.Result()
	if sim.Used() != store.Used() {
		return fmt.Errorf("used: simulator %d, store %d", sim.Used(), store.Used())
	}
	end := r.Occupancy[len(r.Occupancy)-1]
	classUsed := store.ClassUsed()
	for _, c := range doctype.Classes {
		if end.Bytes[c] != classUsed[c] {
			return fmt.Errorf("%v resident bytes: simulator %d, store %d", c, end.Bytes[c], classUsed[c])
		}
	}
	counts := store.AdmissionCounts()
	if r.Admitted != counts.Admitted || r.AdmissionRejects != counts.Rejected ||
		r.AdmissionRejects != store.AdmissionRejects() || r.GhostHits != counts.GhostHits {
		return fmt.Errorf("admission: simulator admitted %d, rejected %d, ghost hits %d; store %+v, %d rejected inserts",
			r.Admitted, r.AdmissionRejects, r.GhostHits, counts, store.AdmissionRejects())
	}
	return nil
}
