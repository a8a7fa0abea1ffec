// Command wcload drives a running wcproxy with a closed-loop request
// replay and reports throughput, exact latency percentiles, and
// client-side cache-outcome tallies as JSON.
//
// The request stream comes from a recorded trace file (-trace: a Squid log
// or WCT2 record stream, read through wcsim's cacheability filter) or
// from the synthetic workload generator (-profile, -requests, -seed — the
// same knobs as wcgen). Each of the -concurrency clients issues its next
// request only after the previous one completes, so concurrency is the
// number of outstanding requests and throughput is measured, not imposed.
//
// Usage:
//
//	wcload -target http://127.0.0.1:8080 -profile dfn -requests 10000 \
//	       [-concurrency 8] [-mode reverse|forward] [-seed 1] [-o report.json]
//	wcload -target http://127.0.0.1:8080 -trace access.wct.gz
//	wcload -topology fleet.json -profile dfn -requests 100000 -reconcile
//	wcload -topology fleet.json -profile dfn -requests 100000 -offline
//
// In reverse mode (default) each trace URL's path and query are sent to
// the target host, matching a wcproxy started with -origin. In forward
// mode the absolute trace URL is sent with the target as an HTTP proxy.
//
// One proxy is a fleet of one: -target URL is shorthand for the topology
// {"nodes":[{"name":"target","url":URL}]}, and exactly one of -target and
// -topology must be given. Requests are sprayed round-robin across every
// node in the topology (-concurrency clients per node) and the report
// carries a tally per node. Every other flag means the same whichever way
// the fleet was named: -reconcile scrapes each node's admin /metrics
// before and after the run and verifies the counters account for every
// request fleet-wide (every node needs an "admin" URL, so it takes a
// topology file); -sequential pins the replay to one request in flight in
// strict source order; and -offline replays the identical topology
// through the hierarchy simulator instead of live HTTP (every node needs
// a "capacity") — together they form the sim/live parity harness
// described in docs/CLUSTER.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"webcachesim/internal/cluster"
	"webcachesim/internal/hierarchy"
	"webcachesim/internal/load"
	"webcachesim/internal/synth"
	"webcachesim/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wcload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wcload", flag.ContinueOnError)
	var (
		target      = fs.String("target", "", "proxy base URL to load: the one-node topology (this or -topology is required)")
		topoPath    = fs.String("topology", "", "cluster topology file: drive every node of the fleet (this or -target is required)")
		tracePath   = fs.String("trace", "", "trace file to replay (overrides -profile)")
		profile     = fs.String("profile", "dfn", "synthetic workload profile (dfn or rtp)")
		requests    = fs.Int("requests", 10000, "request count (synthetic source; caps a trace too)")
		seed        = fs.Int64("seed", 1, "synthetic generation seed")
		concurrency = fs.Int("concurrency", 1, "closed-loop client goroutines per node")
		mode        = fs.String("mode", "reverse", "addressing mode: reverse or forward")
		timeout     = fs.Duration("timeout", 15*time.Second, "per-request timeout")
		out         = fs.String("o", "", "report output path (default stdout)")
		sequential  = fs.Bool("sequential", false, "one request in flight fleet-wide, in strict source order")
		offline     = fs.Bool("offline", false, "replay through the hierarchy simulator instead of live HTTP")
		reconcile   = fs.Bool("reconcile", false, "scrape each node's admin /metrics and verify the counters reconcile")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	topo, err := fleet(*target, *topoPath)
	if err != nil {
		return err
	}
	m, err := load.ParseMode(*mode)
	if err != nil {
		return err
	}
	if *offline && *reconcile {
		return errors.New("-reconcile checks a live run; it cannot be combined with -offline")
	}

	// A trace is read through the paper's §2 filter, as wcsim and wcstat
	// read it: the offline twin then caches only what the live proxy
	// would, and a malformed line is skipped and counted, not fatal.
	var source trace.Reader
	var filter *trace.FilterReader
	if *tracePath != "" {
		f, err := trace.OpenFile(*tracePath, trace.FormatAuto)
		if err != nil {
			return err
		}
		defer f.Close()
		filter = trace.NewFilterReader(f)
		source = filter
	} else {
		prof, err := synth.ProfileByName(*profile)
		if err != nil {
			return err
		}
		gen, err := synth.NewGenerator(prof, synth.Options{
			Seed:     *seed,
			Requests: *requests,
		})
		if err != nil {
			return err
		}
		source = gen
	}
	// One cap, before the live/offline split: both halves of the parity
	// harness read the same stream.
	source = capSource(source, *requests)

	// A trace of which no line parses is an error, not an empty run.
	parsedSome := func() error {
		if filter == nil || filter.Stats().Parsed() > 0 {
			return nil
		}
		return fmt.Errorf("%s: no requests parsed (%d malformed lines)", *tracePath, filter.Stats().Malformed)
	}

	var report any
	if *offline {
		// The sim half of the parity harness: identical topology,
		// identical stream, the simulator core instead of sockets.
		sim, err := hierarchy.NewCluster(topo)
		if err != nil {
			return err
		}
		if err := sim.Run(source); err != nil {
			return err
		}
		if err := parsedSome(); err != nil {
			return err
		}
		report = sim.Results()
	} else {
		// Scrape before the run so reconciliation sees only this run's
		// traffic — a warm fleet's counters carry whatever it served
		// before (probes, earlier replays) — and so a node that cannot be
		// scraped fails the run before any traffic is sent.
		var before map[string]map[string]float64
		if *reconcile {
			if before, err = load.ScrapeTopology(topo); err != nil {
				return err
			}
		}
		rep, err := load.Run(load.Config{
			Topology:    topo,
			Source:      source,
			Mode:        m,
			Concurrency: *concurrency,
			Timeout:     *timeout,
			Sequential:  *sequential,
		})
		if err != nil {
			return err
		}
		if err := parsedSome(); err != nil {
			return err
		}
		if *reconcile {
			after, err := load.ScrapeTopology(topo)
			if err != nil {
				return err
			}
			if err := load.Reconcile(rep, load.DiffMetrics(after, before)); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wcload: %d nodes reconcile: %d requests = %d hits + %d peer hits + %d misses\n",
				len(rep.Nodes), rep.Tally.Requests, rep.Tally.Hits, rep.Tally.PeerHits, rep.Tally.Misses)
		}
		report = rep
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// fleet resolves the two ways of naming the nodes under load to one
// topology. -target goes through the topology parser, so it is held to
// the rules of a node entry (an absolute http(s) URL).
func fleet(target, topoPath string) (*cluster.Topology, error) {
	if (target == "") == (topoPath == "") {
		return nil, errors.New("exactly one of -target and -topology is required")
	}
	if topoPath != "" {
		return cluster.LoadTopology(topoPath)
	}
	doc, err := json.Marshal(cluster.Topology{Nodes: []cluster.Node{{Name: "target", URL: target}}})
	if err != nil {
		return nil, err
	}
	return cluster.ParseTopology(doc)
}

// capSource bounds a reader to n requests (unbounded when n <= 0): the
// -requests cap of a trace replay, live or offline.
func capSource(r trace.Reader, n int) trace.Reader {
	if n <= 0 {
		return r
	}
	return &cappedReader{r: r, left: n}
}

type cappedReader struct {
	r    trace.Reader
	left int
}

func (c *cappedReader) Next() (*trace.Request, error) {
	if c.left <= 0 {
		return nil, io.EOF
	}
	c.left--
	return c.r.Next()
}
