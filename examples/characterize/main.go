// Characterize demonstrates the workload-characterization pipeline of
// Section 2: it writes a synthetic RTP-like trace to disk in Squid format,
// reads it back through the preprocessing filter (as one would with a real
// access log), and prints the per-class Table 2/4-style breakdown along
// with the measured locality indices α and β.
//
// Run with: go run ./examples/characterize
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"webcachesim/internal/analyze"
	"webcachesim/internal/synth"
	"webcachesim/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "wcs-characterize")
	if err != nil {
		return err
	}
	defer func() {
		_ = os.RemoveAll(dir)
	}()
	path := filepath.Join(dir, "rtp.log.gz")

	// 1. Write a gzip-compressed Squid-format trace, exactly what a
	//    caching proxy would log.
	w, err := trace.CreateFile(path, trace.FormatSquid)
	if err != nil {
		return err
	}
	n, err := synth.GenerateTo(w, synth.RTPProfile(), synth.Options{Seed: 5, Requests: 120_000})
	if err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d requests to %s\n\n", n, path)

	// 2. Read it back with the preprocessing filter and characterize.
	fr, err := trace.OpenFile(path, trace.FormatAuto)
	if err != nil {
		return err
	}
	defer func() {
		_ = fr.Close()
	}()
	filter := trace.NewFilterReader(fr)
	c, err := analyze.Characterize(filter, "RTP-like")
	if err != nil {
		return err
	}

	// 3. Print the paper-style tables.
	fmt.Println(c.ClassMixTable("Workload characteristics by document type (cf. Table 3)").Text())
	fmt.Println(c.LocalityTable("Document sizes and temporal locality (cf. Table 5)",
		"Popularity α", "Temporal correlation β").Text())

	fmt.Println("The squid-format log loses DocSize, so document sizes above are")
	fmt.Println("reconstructed from transfer history, as with a real proxy trace.")
	return nil
}
