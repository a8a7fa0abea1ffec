// Command wcsim runs the trace-driven cache simulation: one or more
// replacement policies over a trace file, at one or more cache sizes, with
// hit rates and byte hit rates reported per document type.
//
// Usage:
//
//	wcsim -trace t.wct.gz [-policies lru,lfuda,gds:1,gdstar:p]
//	      [-admissions none,tinylfu,arc-ghost]
//	      [-sizes 64MB,256MB,1GB | -size-pcts 0.5,1,2,4] [-warmup 0.1]
//	      [-by-class] [-csv] [-journal run.jsonl] [-svg-dir dir]
//
// The trace is one file. A WCT3 columnar workload (.wci3, written by
// wcstat -o x.wci3) is memory-mapped and replayed without any parse or
// build step; a record stream (a Squid log or interned .wci, either
// gzipped) first passes the paper's §2 cacheability filter.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"webcachesim/internal/admission"
	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
	"webcachesim/internal/report"
	"webcachesim/internal/trace"
	"webcachesim/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wcsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wcsim", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "", "input trace path (required)")
		policies  = fs.String("policies", "lru,lfuda,gds:1,gdstar:1,gds:p,gdstar:p",
			"comma-separated policy specs (scheme[:cost])")
		admissions = fs.String("admissions", "none",
			"comma-separated admission filter specs (none, tinylfu, arc-ghost); every policy runs under every filter")
		sizes    = fs.String("sizes", "", "cache sizes, comma-separated (e.g. 64MB,1GB)")
		sizePcts = fs.String("size-pcts", "", "cache sizes as % of trace size (e.g. 0.5,1,2,4)")
		warmup   = fs.Float64("warmup", core.DefaultWarmupFraction, "warm-up fraction of requests, in [0, 1)")
		byClass  = fs.Bool("by-class", false, "break results down by document type")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")
		journal  = fs.String("journal", "", "write a JSONL run journal (progress, throughput, wall-clock per cell) to this path; summarize with wcreport -journal")
		svgDir   = fs.String("svg-dir", "", "write the overall hit-rate and byte-hit-rate curves as overall-01.svg and overall-02.svg into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	if !(*warmup >= 0 && *warmup < 1) { // NaN included
		return fmt.Errorf("-warmup %v must be in [0, 1)", *warmup)
	}
	// core reads a zero fraction as "the default" and a negative one as
	// "none"; on the command line 0 means none.
	warmupFraction := *warmup
	if warmupFraction == 0 {
		warmupFraction = -1
	}

	factories, err := parsePolicies(*policies)
	if err != nil {
		return err
	}
	admitters, err := parseAdmissions(*admissions)
	if err != nil {
		return err
	}
	w, done, err := loadWorkload(*tracePath)
	if err != nil {
		return err
	}
	defer done()
	capacities, err := parseCapacities(*sizes, *sizePcts, w)
	if err != nil {
		return err
	}

	sweepCfg := core.SweepConfig{
		Policies:       factories,
		Admissions:     admitters,
		Capacities:     capacities,
		WarmupFraction: warmupFraction,
	}
	var journalFile *os.File
	if *journal != "" {
		journalFile, err = os.Create(*journal)
		if err != nil {
			return fmt.Errorf("create journal: %w", err)
		}
		sweepCfg.Journal = journalFile
	}
	results, err := core.Sweep(w, sweepCfg)
	if journalFile != nil {
		if cerr := journalFile.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close journal: %w", cerr)
		}
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "trace: %s — %d requests, %d distinct documents, %.2f GB\n\n",
		*tracePath, w.NumRequests(), w.NumDocs(), float64(w.DistinctBytes())/(1<<30))

	// The Admission column only appears when a filter was actually
	// configured, so existing -csv consumers (and the golden e2e output)
	// are unchanged by default.
	withAdmission := false
	for _, a := range admitters {
		if a.New != nil {
			withAdmission = true
		}
	}
	headers := []string{"Policy", "Cache (MB)", "HR", "BHR", "Evictions", "Modifications"}
	classHeaders := []string{"Policy", "Cache (MB)", "HR", "BHR", "Requests"}
	if withAdmission {
		headers = append([]string{headers[0], "Admission"}, headers[1:]...)
		classHeaders = append([]string{classHeaders[0], "Admission"}, classHeaders[1:]...)
	}
	row := func(r *core.Result, rest ...any) []any {
		cells := []any{r.Policy}
		if withAdmission {
			cells = append(cells, r.AdmissionName())
		}
		cells = append(cells, float64(r.Capacity)/(1<<20))
		return append(cells, rest...)
	}
	t := report.NewTable("Simulation results", headers...)
	for _, r := range results {
		t.AddRowf(row(r, r.Overall.HitRate(), r.Overall.ByteHitRate(), r.Evictions, r.Modifications)...)
	}
	emit(out, t, *csv)

	if *byClass {
		for _, cl := range doctype.Classes {
			ct := report.NewTable(cl.String(), classHeaders...)
			for _, r := range results {
				c := r.ByClass[cl]
				ct.AddRowf(row(r, c.HitRate(), c.ByteHitRate(), c.Requests)...)
			}
			emit(out, ct, *csv)
		}
	}
	if *svgDir != "" {
		return report.WriteSVGs(*svgDir, "overall", curves(results, withAdmission))
	}
	return nil
}

// curves plots overall hit rate and byte hit rate across the swept cache
// sizes; with an admission axis each (policy, admission) pair is its own
// series.
func curves(results []*core.Result, withAdmission bool) []*report.Plot {
	var series func(*core.Result) string
	if withAdmission {
		series = func(r *core.Result) string { return r.Policy + "/" + r.AdmissionName() }
	}
	g := core.NewGrid(results, series)
	var plots []*report.Plot
	for _, side := range []struct {
		name    string
		measure func(*core.Result) float64
	}{
		{"hit rate", func(r *core.Result) float64 { return r.Overall.HitRate() }},
		{"byte hit rate", func(r *core.Result) float64 { return r.Overall.ByteHitRate() }},
	} {
		p := &report.Plot{
			Title:  "Overall " + side.name + " vs cache size",
			XLabel: "cache size (MB, log)",
			YLabel: side.name,
			LogX:   true,
		}
		for _, name := range g.Series {
			mb, ys := g.CurveMB(name, side.measure)
			p.Add(report.Series{Name: name, X: mb, Y: ys})
		}
		plots = append(plots, p)
	}
	return plots
}

func emit(out io.Writer, t *report.Table, csv bool) {
	if csv {
		fmt.Fprint(out, t.CSV())
	} else {
		fmt.Fprint(out, t.Text())
	}
	fmt.Fprintln(out)
}

func parsePolicies(s string) ([]policy.Factory, error) {
	var out []policy.Factory
	for _, part := range strings.Split(s, ",") {
		spec, err := policy.ParseSpec(part)
		if err != nil {
			return nil, err
		}
		f, err := policy.NewFactory(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no policies given")
	}
	return out, nil
}

func parseAdmissions(s string) ([]policy.AdmitterFactory, error) {
	var out []policy.AdmitterFactory
	for _, part := range strings.Split(s, ",") {
		f, err := admission.ParseSpec(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// loadWorkload builds the workload from one trace file. A WCT3 columnar
// image is opened as a zero-copy (mmap-backed) view, and the returned
// cleanup func unmaps it: call it only after the sweep is done with the
// workload. Any other file is a record stream, read through the paper's
// cacheability filter and closed before returning; its cleanup is a no-op.
func loadWorkload(path string) (*core.Workload, func(), error) {
	noop := func() {}
	w, mapping, err := core.OpenColumnarWorkload(path)
	switch {
	case err == nil:
		return w, func() { _ = mapping.Close() }, nil
	case !errors.Is(err, trace.ErrNotColumnar):
		return nil, noop, err
	}
	fr, err := trace.OpenFile(path, trace.FormatAuto)
	if err != nil {
		return nil, noop, err
	}
	defer func() { _ = fr.Close() }()
	filter := trace.NewFilterReader(fr)
	w, err = core.BuildWorkload(filter, 0)
	if err == nil && filter.Stats().Parsed() == 0 {
		err = fmt.Errorf("%s: no requests parsed (%d malformed lines)", path, filter.Stats().Malformed)
	}
	return w, noop, err
}

func parseCapacities(sizes, pcts string, w *core.Workload) ([]int64, error) {
	switch {
	case sizes != "" && pcts != "":
		return nil, fmt.Errorf("-sizes and -size-pcts are mutually exclusive")
	case sizes != "":
		var out []int64
		for _, part := range strings.Split(sizes, ",") {
			n, err := units.ParseBytes(strings.TrimSpace(part))
			if err != nil {
				return nil, err
			}
			out = append(out, n)
		}
		return out, nil
	default:
		// Percentages of the overall size; without a flag, the paper's
		// 0.5%–4% range.
		if pcts == "" {
			pcts = "0.5,1,2,4"
		}
		list, err := units.ParsePercents(pcts)
		if err != nil {
			return nil, err
		}
		var out []int64
		for _, pct := range list {
			out = append(out, w.CapacityAt(pct, core.FloorByte))
		}
		// Percentages that round or clamp to the same byte count are one
		// cache size, not a duplicate the sweep should refuse.
		slices.Sort(out)
		return slices.Compact(out), nil
	}
}
