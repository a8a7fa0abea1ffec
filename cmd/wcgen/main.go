// Command wcgen synthesizes a proxy trace calibrated to one of the
// paper's workload profiles and writes it to a file. The path names the
// format: .wci, .wct or .bin is interned binary (WCT2), anything else a
// Squid log; a further .gz compresses it.
//
// Usage:
//
//	wcgen -profile dfn|rtp -o trace.wci.gz [-scale 1.0] [-requests N]
//	      [-seed 1] [-clients N] [-diurnal A]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"webcachesim/internal/synth"
	"webcachesim/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wcgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wcgen", flag.ContinueOnError)
	var (
		profile  = fs.String("profile", "dfn", "workload profile (dfn or rtp)")
		out      = fs.String("o", "", "output trace path (required; .wci/.wct/.bin is interned, else Squid; .gz enables gzip)")
		scale    = fs.Float64("scale", 1.0, "request-count scale factor")
		requests = fs.Int("requests", 0, "explicit request count (overrides -scale)")
		seed     = fs.Int64("seed", 1, "generation seed")
		clients  = fs.Int("clients", 0, "client population (0 = single client)")
		diurnal  = fs.Float64("diurnal", 0, "diurnal load amplitude in [0,1) (0 = flat rate)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-o is required")
	}
	prof, err := synth.ProfileByName(*profile)
	if err != nil {
		return err
	}
	prof.DiurnalAmplitude = *diurnal
	start := time.Now()
	// The generator checks the profile and the counts: a refused run
	// must not create, or truncate, the output file.
	g, err := synth.NewGenerator(prof, synth.Options{
		Seed:     *seed,
		Scale:    *scale,
		Requests: *requests,
		Clients:  *clients,
	})
	if err != nil {
		return err
	}
	w, err := trace.CreateFile(*out, trace.FormatAuto)
	if err != nil {
		return err
	}
	n, err := g.WriteAll(w)
	if err != nil {
		_ = w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d %s-profile requests to %s in %.1fs\n",
		n, prof.Name, *out, time.Since(start).Seconds())
	return nil
}
