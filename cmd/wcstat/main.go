// Command wcstat characterizes a proxy trace the way Section 2 of the
// paper does, printing the Table 1/2/4-style summaries: totals, per-class
// shares, size statistics, and the locality indices α and β.
//
// Usage:
//
//	wcstat trace.log[.gz] ...
//	wcstat -o workload.wci3 trace.log[.gz]
//
// A record stream (a Squid log or interned .wci, either gzipped) is read
// through the paper's cacheability filter, and the totals count what it
// dropped and the distinct clients. A WCT3 columnar workload (.wci3) was
// filtered when it was written and records neither, so those rows are
// omitted for it.
//
// -o also writes the workload just characterized as a WCT3 columnar
// image (Workload.WriteColumnar): the trace in its final simulation form
// (filtered, interned, per-document size history) as mmap-able
// fixed-width columns, which wcsim replays with no parse or build cost.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"webcachesim/internal/analyze"
	"webcachesim/internal/core"
	"webcachesim/internal/report"
	"webcachesim/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wcstat:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wcstat", flag.ContinueOnError)
	image := fs.String("o", "", "also write the workload as a WCT3 columnar image to this .wci3 path (one trace only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: wcstat [-o workload.wci3] trace...")
	}
	if *image != "" {
		if fs.NArg() != 1 {
			return fmt.Errorf("-o writes one workload: give exactly one trace, not %d", fs.NArg())
		}
		if !strings.HasSuffix(*image, ".wci3") {
			return fmt.Errorf("-o %s: the image path must end in .wci3", *image)
		}
	}
	for _, path := range fs.Args() {
		if err := statOne(path, *image, out); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

func statOne(path, image string, out io.Writer) error {
	// A nil filter marks a columnar image: no filter ran here, and no
	// client was seen.
	var filter *trace.FilterReader
	clients := &clientCounter{seen: make(map[string]bool)}
	w, mapping, err := core.OpenColumnarWorkload(path)
	switch {
	case err == nil:
		defer func() { _ = mapping.Close() }()
	case errors.Is(err, trace.ErrNotColumnar):
		fr, err := trace.OpenFile(path, trace.FormatAuto)
		if err != nil {
			return err
		}
		defer func() { _ = fr.Close() }()
		filter = trace.NewFilterReader(fr)
		clients.src = filter
		if w, err = core.BuildWorkload(clients, 0); err != nil {
			return err
		}
		if filter.Stats().Parsed() == 0 {
			return fmt.Errorf("no requests parsed (%d malformed lines)", filter.Stats().Malformed)
		}
	default:
		return err
	}
	if image != "" {
		if filter == nil {
			return errors.New("-o converts a record stream, and this is already a WCT3 image")
		}
		if err := w.WriteColumnar(image); err != nil {
			return err
		}
	}
	c := analyze.Characterize(w, path)

	render := func(t *report.Table) {
		fmt.Fprintln(out, t.Text())
	}

	totals := report.NewTable("Trace properties — "+path, "", "value")
	totals.AddRowf("Distinct Documents", c.DistinctDocs)
	totals.AddRowf("Overall Size (GB)", float64(c.DistinctBytes)/(1<<30))
	totals.AddRowf("Total Requests", c.Requests)
	totals.AddRowf("Requested Data (GB)", float64(c.ReqBytes)/(1<<30))
	if n := len(clients.seen); n > 0 {
		totals.AddRowf("Distinct Clients", n)
	}
	if filter != nil {
		st := filter.Stats()
		totals.AddRowf("Filtered Out (dynamic URL)", st.DroppedURL)
		totals.AddRowf("Filtered Out (status)", st.DroppedStatus)
		totals.AddRowf("Filtered Out (method)", st.DroppedMethod)
		totals.AddRowf("Malformed Lines", st.Malformed)
	}
	render(totals)

	render(c.ClassMixTable("Workload characteristics by document type"))
	render(c.LocalityTable("Document sizes and temporal locality", "Popularity α", "Temporal Correlation β"))
	return nil
}

// clientCounter collects the distinct client identifiers of the stream
// flowing through to the workload, which records no clients.
type clientCounter struct {
	src  trace.Reader
	seen map[string]bool
}

func (c *clientCounter) Next() (*trace.Request, error) {
	req, err := c.src.Next()
	if err == nil && req.Client != "" && req.Client != "-" && !c.seen[req.Client] {
		// The request's strings alias the reader's block: keep a copy.
		c.seen[strings.Clone(req.Client)] = true
	}
	return req, err
}
