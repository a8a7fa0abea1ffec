// Hierarchy demonstrates why the paper's traces look the way they do:
// both DFN and RTP were recorded at upper-level proxies, downstream of
// institutional caches. The example pushes a DFN-like stream through a
// two-level hierarchy, prints per-level hit rates, and then characterizes
// the top level's miss stream — showing the popularity flattening (smaller
// α) that §2 measures on the real traces.
//
// Run with: go run ./examples/hierarchy
package main

import (
	"fmt"
	"log"

	"webcachesim/internal/analyze"
	"webcachesim/internal/doctype"
	"webcachesim/internal/hierarchy"
	"webcachesim/internal/policy"
	"webcachesim/internal/synth"
	"webcachesim/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	reqs, err := synth.Generate(synth.DFNProfile(), synth.Options{Seed: 13, Requests: 150_000})
	if err != nil {
		return err
	}
	origin, err := analyze.Characterize(trace.NewSliceReader(reqs), "client-side")
	if err != nil {
		return err
	}

	lru := policy.MustFactory(policy.Spec{Scheme: "lru"})
	gdsp := policy.MustFactory(policy.Spec{Scheme: "gdstar", Cost: policy.PacketCost{}})

	h, err := hierarchy.New(
		[]hierarchy.LevelConfig{
			{Name: "institutional (LRU, 16 MB)", Capacity: 16 << 20, Policy: lru},
			{Name: "backbone (GD*(P), 64 MB)", Capacity: 64 << 20, Policy: gdsp},
		},
		0,
	)
	if err != nil {
		return err
	}
	// What misses every level is the stream an origin would see.
	var upstream []*trace.Request
	for _, r := range reqs {
		if h.Process(r) < 0 {
			upstream = append(upstream, r)
		}
	}

	fmt.Printf("%-28s %10s %8s %8s\n", "level", "requests", "HR", "BHR")
	for _, lr := range h.Results().Levels() {
		o := lr.Result.Overall
		fmt.Printf("%-28s %10d %8.4f %8.4f\n", lr.Name, o.Requests, o.HitRate(), o.ByteHitRate())
	}

	filtered, err := analyze.Characterize(trace.NewSliceReader(upstream), "origin-side")
	if err != nil {
		return err
	}
	oImg := origin.Classes[doctype.Image]
	fImg := filtered.Classes[doctype.Image]
	fmt.Printf("\npopularity filtering (image class):\n")
	fmt.Printf("  α at the clients:            %.3f\n", oImg.Alpha)
	if fImg.AlphaOK {
		fmt.Printf("  α above the hierarchy:       %.3f  (flattened — cf. the small α of the paper's upper-level traces)\n", fImg.Alpha)
	}
	fmt.Printf("  requests absorbed by caches: %.1f%%\n",
		100*(1-float64(len(upstream))/float64(len(reqs))))
	return nil
}
