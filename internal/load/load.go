// Package load is a closed-loop HTTP load generator for the caching
// proxy. It replays a request stream — a recorded trace or the synthetic
// workload generator — against a running proxy with a configurable number
// of concurrent clients, and reports throughput, exact latency
// percentiles, and client-side cache-outcome tallies read from the
// proxy's X-Cache, X-Coalesced and X-Admission response headers.
//
// "Closed-loop" means each client issues its next request only after the
// previous one completes: concurrency is the number of outstanding
// requests, and throughput is an output, not an input. That is the mode
// that makes miss coalescing observable — clients pile onto the same URL
// only when the origin is the bottleneck, exactly as in production.
//
// A single proxy is a fleet of one: the target is always a
// cluster.Topology, the stream is sprayed round-robin across its nodes
// the way a load balancer would (so an N-node fleet's peer-fetch path
// carries ~(N-1)/N of the traffic), and Reconcile checks the client-side
// tallies against every node's /metrics counters.
//
// The package is the engine behind cmd/wcload and is driven directly by
// the end-to-end tests.
package load

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"webcachesim/internal/cluster"
	"webcachesim/internal/pool"
	"webcachesim/internal/trace"
)

// Mode selects how replayed URLs are addressed to the target.
type Mode int

const (
	// Reverse sends each request's path and query to the target host —
	// the shape for a proxy running with -origin (reverse mode).
	Reverse Mode = iota
	// Forward sends the trace's absolute URL using the target as an HTTP
	// proxy — the shape for a forward proxy.
	Forward
)

// ParseMode parses "reverse" or "forward".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "reverse":
		return Reverse, nil
	case "forward":
		return Forward, nil
	}
	return 0, fmt.Errorf("load: unknown mode %q (want reverse or forward)", s)
}

// Config parameterizes a load run.
type Config struct {
	// Topology names the nodes under load; required. Node URLs are the
	// targets (one proxy is the one-node topology); Admin URLs, when
	// present, let ScrapeTopology and Reconcile check the run.
	Topology *cluster.Topology
	// Source supplies the requests to replay; required, and drained. Only
	// the URL field is consulted. Request k goes to node k mod N.
	Source trace.Reader
	// Mode addresses requests to the nodes (Reverse by default).
	Mode Mode
	// Concurrency is the number of closed-loop clients per node (1 when
	// 0). Ignored in Sequential mode.
	Concurrency int
	// Timeout bounds each request (15s when 0).
	Timeout time.Duration
	// Transport overrides the HTTP transport, for tests. In Forward mode
	// the default transport routes through each node as an HTTP proxy.
	Transport http.RoundTripper
	// Sequential, when set, replays the stream with exactly one request
	// in flight fleet-wide, in strict source order. That pins down every
	// source of reordering — no coalescing, no cross-node races — which
	// is what makes the live fleet byte-comparable to the offline
	// hierarchy.Cluster replay (see docs/CLUSTER.md, Parity).
	Sequential bool
}

// Tally is the client-side view of cache outcomes, derived from response
// headers: Hits+PeerHits+Misses == Requests, and Stale and Coalesced are
// subsets of Misses. Reconciling these against the proxy's own counters
// is the end-to-end correctness check.
type Tally struct {
	Requests int64 `json:"requests"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	// PeerHits counts responses a clustered proxy answered from a
	// sibling node's cache (X-Cache: PEER-HIT) — neither a local hit nor
	// a miss. Always zero against an unclustered proxy.
	PeerHits  int64 `json:"peerHits,omitempty"`
	Stale     int64 `json:"stale"`
	Coalesced int64 `json:"coalesced"`
	// AdmissionRejects counts miss-leader responses whose cacheable body
	// the proxy's admission filter refused to store (X-Admission:
	// reject). The proxy sets the header only on the request that
	// performed the origin fetch, never on coalesced followers, so this
	// tally reconciles exactly with wcproxy_admission_rejected_total.
	AdmissionRejects int64 `json:"admissionRejects,omitempty"`
	// Errors counts the attempts the proxy did not account: those that
	// produced no HTTP response (transport failures) and responses without
	// an X-Cache header (the proxy's 405, 400, and the 502 of a failed
	// upstream fetch). An error counts in nothing else; every labelled
	// response, whatever its status, counts as a Request.
	Errors int64 `json:"errors"`
	// Bytes is the total body bytes received.
	Bytes int64 `json:"bytes"`
}

// add sums another tally into t, field by field.
func (t *Tally) add(o Tally) {
	t.Requests += o.Requests
	t.Hits += o.Hits
	t.Misses += o.Misses
	t.PeerHits += o.PeerHits
	t.Stale += o.Stale
	t.Coalesced += o.Coalesced
	t.AdmissionRejects += o.AdmissionRejects
	t.Errors += o.Errors
	t.Bytes += o.Bytes
}

// Latency summarizes the per-request latency distribution in
// milliseconds. Percentiles are exact (computed from every sample), not
// estimated.
type Latency struct {
	Mean float64 `json:"meanMs"`
	P50  float64 `json:"p50Ms"`
	P90  float64 `json:"p90Ms"`
	P99  float64 `json:"p99Ms"`
	Max  float64 `json:"maxMs"`
}

// NodeReport is one node's slice of a run.
type NodeReport struct {
	// Name is the topology node name.
	Name string `json:"name"`
	// Tally is the client-side outcome count for requests this run sent
	// to that node (not requests the node served for its siblings).
	Tally Tally `json:"tally"`
}

// Report is the result of a load run.
type Report struct {
	// Nodes holds the per-node tallies, in topology order.
	Nodes []NodeReport `json:"nodes"`
	// Tally sums the per-node tallies.
	Tally Tally `json:"tally"`
	// Concurrency is the per-node client count (1 in sequential mode).
	Concurrency int     `json:"concurrency"`
	Seconds     float64 `json:"seconds"`
	// Throughput is completed requests per second of wall time.
	Throughput float64 `json:"throughputRps"`
	// HitRate is the service rate from cache: (local hits + peer hits) /
	// requests — a request served by any node's cache counts.
	HitRate float64 `json:"hitRate"`
	Latency Latency `json:"latency"`
}

// worker accumulates results privately; tallies merge after the run, so
// the hot loop takes no locks. Each worker also owns its request-shaped
// state — a reusable http.Request, a reusable target URL, and a pooled
// drain buffer — so the replay loop does not allocate per request beyond
// what url.Parse and the transport require. A loaded generator that
// allocates heavily distorts the very latency distribution it measures;
// keeping the client lean keeps the numbers about the proxy.
type worker struct {
	tally     Tally
	latencies []time.Duration

	client *http.Client
	mode   Mode
	// req is reused across the worker's sequential requests (legal: the
	// previous response body is fully drained and closed before the next
	// call). reqURL is the Reverse-mode target, retargeted in place.
	req    *http.Request
	reqURL url.URL
	// drainBuf is the pooled body-read buffer, held for the worker's
	// lifetime and released when the run ends.
	drainBuf *pool.Buf
}

// newWorker builds one closed-loop client aimed at target.
func newWorker(client *http.Client, mode Mode, target *url.URL) *worker {
	return &worker{
		client: client,
		mode:   mode,
		reqURL: *target,
		req: &http.Request{
			Method:     http.MethodGet,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     make(http.Header),
		},
		drainBuf: pool.Default.Get(32 << 10),
	}
}

// Run replays the configured source against every node of the topology
// and blocks until the replay completes. It fails fast on configuration
// errors; transport errors during the run are tallied, not fatal.
func Run(cfg Config) (*Report, error) {
	if cfg.Topology == nil || len(cfg.Topology.Nodes) == 0 {
		return nil, errors.New("load: a Topology with at least one node is required")
	}
	if cfg.Source == nil {
		return nil, errors.New("load: Source is required")
	}
	conc := cfg.Concurrency
	if conc <= 0 || cfg.Sequential {
		conc = 1
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 15 * time.Second
	}
	targets := make([]*url.URL, len(cfg.Topology.Nodes))
	for i, n := range cfg.Topology.Nodes {
		u, err := url.Parse(n.URL)
		if err != nil {
			return nil, fmt.Errorf("load: node %q url: %w", n.Name, err)
		}
		targets[i] = u
	}
	nodes := make([][]*worker, len(targets))
	for i, target := range targets {
		transport := cfg.Transport
		if transport == nil {
			transport = http.DefaultTransport
			if cfg.Mode == Forward {
				transport = &http.Transport{Proxy: http.ProxyURL(target)}
			}
		}
		client := &http.Client{Transport: transport, Timeout: timeout}
		for c := 0; c < conc; c++ {
			nodes[i] = append(nodes[i], newWorker(client, cfg.Mode, target))
		}
	}

	// Sequential: the loop below issues each request itself, so exactly
	// one is in flight fleet-wide. Otherwise it only feeds: each node has
	// its own queue and closed-loop client pool, and a client issues its
	// next request when its previous one finished.
	dispatch := func(node int, raw string) { nodes[node][0].do(raw) }
	var queues []chan string
	var wg sync.WaitGroup
	if !cfg.Sequential {
		queues = make([]chan string, len(nodes))
		for i, ws := range nodes {
			queue := make(chan string, conc)
			queues[i] = queue
			for _, w := range ws {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for raw := range queue {
						w.do(raw)
					}
				}()
			}
		}
		dispatch = func(node int, raw string) { queues[node] <- raw }
	}

	// The one source-draining loop: request k goes to node k mod N.
	var srcErr error
	start := time.Now()
	for sent := 0; ; sent++ {
		req, err := cfg.Source.Next()
		if err != nil {
			srcErr = err
			break
		}
		dispatch(sent%len(nodes), req.URL)
	}
	for _, queue := range queues {
		close(queue)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{Concurrency: conc, Seconds: elapsed.Seconds()}
	var all []time.Duration
	for i, ws := range nodes {
		nr := NodeReport{Name: cfg.Topology.Nodes[i].Name}
		for _, w := range ws {
			w.drainBuf.Release()
			nr.Tally.add(w.tally)
			all = append(all, w.latencies...)
		}
		rep.Nodes = append(rep.Nodes, nr)
		rep.Tally.add(nr.Tally)
	}
	if srcErr != nil && srcErr != io.EOF {
		return nil, fmt.Errorf("load: reading source: %w", srcErr)
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Tally.Requests) / elapsed.Seconds()
	}
	if rep.Tally.Requests > 0 {
		rep.HitRate = float64(rep.Tally.Hits+rep.Tally.PeerHits) / float64(rep.Tally.Requests)
	}
	rep.Latency = summarize(all)
	return rep, nil
}

// do issues one request and tallies its outcome.
func (w *worker) do(raw string) {
	u, err := url.Parse(raw)
	if err != nil {
		w.tally.Errors++
		return
	}
	w.setTarget(u)
	begin := time.Now()
	resp, err := w.client.Do(w.req)
	if err != nil {
		w.tally.Errors++
		return
	}
	n := w.drain(resp.Body)
	_ = resp.Body.Close() // best-effort: the request already succeeded
	xcache := resp.Header.Get("X-Cache")
	if xcache == "" { // an answer the proxy did not account
		w.tally.Errors++
		return
	}
	w.latencies = append(w.latencies, time.Since(begin))

	w.tally.Requests++
	w.tally.Bytes += n
	switch xcache {
	case "HIT":
		w.tally.Hits++
	case "PEER-HIT":
		w.tally.PeerHits++
	case "STALE":
		w.tally.Misses++
		w.tally.Stale++
	default:
		w.tally.Misses++
		if resp.Header.Get("X-Coalesced") == "1" {
			w.tally.Coalesced++
		}
		if resp.Header.Get("X-Admission") == "reject" {
			w.tally.AdmissionRejects++
		}
	}
}

// setTarget points the worker's reusable request at the parsed trace
// URL: verbatim in Forward mode, or — in Reverse mode — by grafting the
// trace URL's path and query onto the reusable target URL, the same
// mapping the old String()+re-parse produced without materializing the
// intermediate string.
func (w *worker) setTarget(u *url.URL) {
	if w.mode == Forward {
		w.req.URL = u
		return
	}
	w.reqURL.Path = u.Path
	w.reqURL.RawPath = u.RawPath
	w.reqURL.RawQuery = u.RawQuery
	w.req.URL = &w.reqURL
}

// drain reads the response body to completion through the worker's
// pooled buffer, returning the bytes received. Read errors end the drain
// early — a short read only skews this sample's byte count.
func (w *worker) drain(body io.Reader) int64 {
	var n int64
	for {
		m, err := body.Read(w.drainBuf.B)
		n += int64(m)
		if err != nil {
			return n
		}
	}
}

// summarize computes exact percentiles over every recorded latency.
func summarize(all []time.Duration) Latency {
	if len(all) == 0 {
		return Latency{}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var sum time.Duration
	for _, d := range all {
		sum += d
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return Latency{
		Mean: ms(sum / time.Duration(len(all))),
		P50:  ms(percentile(all, 0.50)),
		P90:  ms(percentile(all, 0.90)),
		P99:  ms(percentile(all, 0.99)),
		Max:  ms(all[len(all)-1]),
	}
}

// percentile returns the q-th percentile of a sorted sample using the
// nearest-rank method: the smallest value with at least q·n samples at or
// below it.
func percentile(sorted []time.Duration, q float64) time.Duration {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
