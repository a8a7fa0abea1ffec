// Streaming shows the large-trace path: a trace is written to disk, then
// simulated straight from the file — one pass, constant memory apart from
// the document table — using core.StreamSimulator. This is the pipeline a
// user with a multi-gigabyte Squid log would run.
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"webcachesim/internal/core"
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
	dir, err := os.MkdirTemp("", "wcs-streaming")
	if err != nil {
		return err
	}
	defer func() {
		_ = os.RemoveAll(dir)
	}()
	path := filepath.Join(dir, "big.wct.gz")

	// 1. Write the trace (stand-in for a multi-GB access log).
	w, err := trace.CreateFile(path, trace.FormatInterned)
	if err != nil {
		return err
	}
	const requests = 200_000
	if _, err := synth.GenerateTo(w, synth.DFNProfile(), synth.Options{Seed: 9, Requests: requests}); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d requests, %.1f MB on disk (compressed)\n\n", requests, float64(info.Size())/(1<<20))

	// 2. Stream-simulate two policies without materializing the trace.
	for _, spec := range []string{"lru", "gdstar:p"} {
		parsed, err := policy.ParseSpec(spec)
		if err != nil {
			return err
		}
		f, err := policy.NewFactory(parsed)
		if err != nil {
			return err
		}
		fr, err := trace.OpenFile(path, trace.FormatAuto)
		if err != nil {
			return err
		}
		sim, err := core.NewStreamSimulator(core.Config{Capacity: 64 << 20, Policy: f}, 0)
		if err != nil {
			_ = fr.Close()
			return err
		}
		r, err := sim.Run(trace.NewFilterReader(fr), requests/10)
		if cerr := fr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("%-8s hr=%.4f bhr=%.4f evictions=%d\n",
			r.Policy, r.Overall.HitRate(), r.Overall.ByteHitRate(), r.Evictions)
	}
	return nil
}
