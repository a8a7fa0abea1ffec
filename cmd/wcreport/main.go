// Command wcreport runs the paper's experiments end to end — workload
// synthesis, characterization, and the policy × cache-size sweeps — and
// prints the regenerated tables and shape-check verdicts; -svg-dir writes
// the figures.
//
// Usage:
//
//	wcreport [-exp all|<id>] [-extras] [-scale 1.0] [-seed 1] [-size-pcts 0.5,1,2,4]
//	         [-checks-only] [-svg-dir dir]
//	wcreport -journal run.jsonl
//
// The experiment ids are the rows of internal/experiment's registry; -h
// lists them. Exit status 1 is reported when any shape check fails, so the
// command doubles as a reproduction gate in CI.
//
// With -journal the command instead summarizes a run journal written by
// wcsim -journal (or core.SweepConfig.Journal) into a per-cell throughput
// table, validating the JSONL schema along the way — a malformed journal
// is a non-zero exit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"webcachesim/internal/experiment"
	"webcachesim/internal/report"
	"webcachesim/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wcreport:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wcreport", flag.ContinueOnError)
	var (
		expFlag    = fs.String("exp", "all", fmt.Sprintf("experiment id: all, one of %v, or an extra %v", experiment.All, experiment.Extras))
		scale      = fs.Float64("scale", 1.0, "workload scale factor")
		seed       = fs.Int64("seed", 1, "generation seed")
		sizePcts   = fs.String("size-pcts", "", "cache sizes as % of trace size, comma-separated (default 0.5,0.75,1,1.5,2,3,4)")
		checksOnly = fs.Bool("checks-only", false, "print only shape-check verdicts")
		svgDir     = fs.String("svg-dir", "", "write every figure as an SVG file into this directory")
		extras     = fs.Bool("extras", false, "with -exp all, also run the beyond-the-paper experiments")
		journal    = fs.String("journal", "", "summarize a wcsim run journal (JSONL) instead of running experiments")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *journal != "" {
		return summarizeJournal(*journal, out)
	}

	if !(*scale > 0) { // NaN included
		return fmt.Errorf("-scale %v must be positive", *scale)
	}
	opts := experiment.Options{Scale: *scale, Seed: *seed}
	if *sizePcts != "" {
		var err error
		if opts.CacheSizePcts, err = units.ParsePercents(*sizePcts); err != nil {
			return err
		}
	}
	env := experiment.NewEnv(opts)

	ids := experiment.All
	if *extras {
		ids = slices.Concat(ids, experiment.Extras)
	}
	if *expFlag != "all" {
		id, err := experiment.ParseID(*expFlag)
		if err != nil {
			return err
		}
		ids = []experiment.ID{id}
	}

	failed := 0
	for _, id := range ids {
		start := time.Now()
		o, err := env.Run(id)
		if err != nil {
			return err
		}
		for _, c := range o.Checks {
			if !c.Pass {
				failed++
			}
		}
		if *svgDir != "" {
			if err := report.WriteSVGs(*svgDir, string(o.ID), o.Plots); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "==== %s  (%.1fs)\n", o.Title, time.Since(start).Seconds())
		if !*checksOnly {
			for _, note := range o.Notes {
				fmt.Fprintf(out, "note: %s\n", note)
			}
			fmt.Fprintln(out)
			for _, t := range o.Tables {
				fmt.Fprintln(out, t.Text())
			}
		}
		for _, c := range o.Checks {
			status := "PASS"
			if !c.Pass {
				status = "FAIL"
			}
			fmt.Fprintf(out, "  [%s] %s — %s\n", status, c.Name, c.Detail)
		}
		fmt.Fprintln(out)
	}
	if failed > 0 {
		return fmt.Errorf("%d shape check(s) failed", failed)
	}
	return nil
}
