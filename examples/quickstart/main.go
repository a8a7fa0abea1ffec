// Quickstart: generate a small DFN-like workload, simulate the paper's
// six replacement-scheme configurations at one cache size, and print hit
// rate and byte hit rate for each.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"webcachesim/internal/core"
	"webcachesim/internal/policy"
	"webcachesim/internal/synth"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Synthesize a workload calibrated to the paper's DFN trace.
	gen, err := synth.NewGenerator(synth.DFNProfile(), synth.Options{Seed: 1, Requests: 100_000})
	if err != nil {
		return err
	}

	// 2. Feed the generator straight into the one-pass ingest, which
	//    freezes it as an immutable columnar workload (dense doc IDs,
	//    eager class resolution, modification detection) — no
	//    intermediate request slice.
	w, err := core.BuildWorkload(gen.Reader(), 0)
	if err != nil {
		return err
	}
	capacity := w.CapacityAt(2, core.FloorByte) // 2% of trace size
	fmt.Printf("workload: %d requests, %d documents, %.0f MB total; cache %.0f MB\n\n",
		w.NumRequests(), w.NumDocs(), float64(w.DistinctBytes())/(1<<20), float64(capacity)/(1<<20))

	// 3. Simulate every scheme the paper compares.
	fmt.Printf("%-8s  %8s  %8s\n", "policy", "HR", "BHR")
	for _, f := range policy.StudyFactories() {
		sim, err := core.NewSimulator(w, core.Config{Capacity: capacity, Policy: f})
		if err != nil {
			return err
		}
		r := sim.Run(w)
		fmt.Printf("%-8s  %8.4f  %8.4f\n", r.Policy, r.Overall.HitRate(), r.Overall.ByteHitRate())
	}
	fmt.Println("\nGD*(1) should lead HR; LRU/LFU-DA and the packet-cost variants lead BHR.")
	return nil
}
