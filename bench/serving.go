package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"webcachesim/internal/admission"
	"webcachesim/internal/metrics"
	"webcachesim/internal/policy"
	"webcachesim/internal/pool"
	"webcachesim/internal/proxy"
)

// servingRequests is the length of the request list one pass replays. The
// issue's probe used 150 000; the driver's time budget (92 runs inside 57
// minutes) leaves about 20 s of measurement a run, and 40 000 keeps ten or
// more passes inside that on the slowest serving workload, so that the
// median outlasts the several-second slow spells of a shared machine.
const servingRequests = 40_000

// setupRepeats is how many times a run boots its stack from nothing;
// setup_s is the median.
const setupRepeats = 3

// servingSpec is the configuration of one serving workload, in the terms
// of cmd/wcproxy's flags.
type servingSpec struct {
	nodes     int
	policy    string
	admission string
	capacity  int64
	shards    int // 0: the proxy's default
	// openRate is the arrival rate of the open-loop diagnostic in
	// requests per second: half the closed-loop req_per_s measured on the
	// commit that introduced the benchmark, frozen so that later commits
	// are offered the same load.
	openRate float64
}

var servingSpecs = map[string]servingSpec{
	"serve_hot":   {nodes: 1, policy: "lru", admission: "none", capacity: 1 << 30, openRate: 19000},
	"serve_churn": {nodes: 1, policy: "gdstar:p", admission: "tinylfu", capacity: 4 << 20, openRate: 10000},
	"fleet_peer":  {nodes: 3, policy: "lru", admission: "none", capacity: 1 << 30, openRate: 9000},
}

// node is one proxy of the stack with everything read from it afterwards.
type node struct {
	name string
	srv  *proxy.Server
	reg  *metrics.Registry
	pool *pool.Pool
	ln   *listener
}

// stack is a serving workload's whole system in this process: stub
// origin, one proxy or a full-mesh fleet, and the load generator, joined
// by real loopback TCP connections.
type stack struct {
	spec      servingSpec
	in        *input
	origin    *origin
	originLn  *listener
	nodes     []*node
	transport *http.Transport
	gen       *generator
	seen      tally // everything the client saw since boot
}

// boot builds the stack the way cmd/wcproxy wires a node: parsed policy
// and admission specs, a metrics registry, proxy.New behind an
// http.Server. rec is nil except in the traced run.
func boot(spec servingSpec, in *input, rec *recorder) (_ *stack, err error) {
	st := &stack{spec: spec, in: in, origin: newOrigin(in.docs, rec)}
	defer func() {
		if err != nil {
			_ = st.close() // the boot error is the one worth reporting
		}
	}()
	if st.originLn, err = listen(st.origin); err != nil {
		return nil, err
	}
	pspec, err := policy.ParseSpec(spec.policy)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	factory, err := policy.NewFactory(pspec)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	admitter, err := admission.ParseSpec(spec.admission)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	// cmd/wcproxy leaves both transports nil and gets the process-wide
	// default; a clone behaves the same and can be shut down with the
	// stack, so one boot's idle connections never reach the next.
	st.transport = http.DefaultTransport.(*http.Transport).Clone()

	// Every node's address is reserved before any handler is built: a
	// fleet member's configuration names its peers' URLs.
	for i := 0; i < spec.nodes; i++ {
		n := &node{name: "n" + strconv.Itoa(i+1), reg: metrics.NewRegistry(), pool: pool.New()}
		if n.ln, err = reserve(); err != nil {
			return nil, err
		}
		st.nodes = append(st.nodes, n)
	}
	for _, n := range st.nodes {
		cfg := proxy.Config{
			Capacity:  spec.capacity,
			Policy:    factory,
			Admission: admitter,
			Metrics:   n.reg,
			Shards:    spec.shards,
			Origin:    st.originLn.url,
			Transport: st.transport,
			Buffers:   n.pool,
		}
		if spec.nodes > 1 {
			peers := make(map[string]*url.URL, spec.nodes-1)
			for _, p := range st.nodes {
				if p != n {
					peers[p.name] = p.ln.url
				}
			}
			cfg.Cluster = &proxy.ClusterConfig{Self: n.name, Peers: peers, Transport: st.transport}
		}
		if n.srv, err = proxy.New(cfg); err != nil {
			return nil, fmt.Errorf("boot %s: %w", n.name, err)
		}
		n.ln.serve(n.srv)
	}
	addrs := make([]string, len(st.nodes))
	for i, n := range st.nodes {
		addrs[i] = n.ln.addr()
	}
	if st.gen, err = newGenerator(in, addrs); err != nil {
		return nil, err
	}
	st.setTracing(rec != nil)
	return st, nil
}

// replay runs one closed-loop pass and adds it to what the client has
// seen since boot.
func (st *stack) replay() *pass {
	p := st.gen.closedLoop()
	st.seen.add(&p.tally)
	return p
}

// close stops generator, proxies and origin, in that order, and waits for
// each to end.
func (st *stack) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if st.gen != nil {
		st.gen.close()
	}
	for _, n := range st.nodes {
		keep(n.ln.close())
	}
	if st.transport != nil {
		st.transport.CloseIdleConnections()
	}
	if st.originLn != nil {
		keep(st.originLn.close())
	}
	return first
}

// scrape reads a registry's text exposition into name → value, keyed as
// exposed ("name" or `name{label="v"}`) — the same bytes an operator's
// /metrics request returns.
func scrape(reg *metrics.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("scrape: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// ledger is the fleet-wide sum of the scraped counters the per-layer
// metrics and the reconciliation use.
type ledger struct {
	requests, hits, peerHits, misses     float64
	coalesced, stale, evictions          float64
	originFetches, uncacheable           float64
	admitted, admRejected, ghostHits     float64
	peerFetches, peerErrors              float64
	poolAcquires, poolNews, poolBypass   float64
	poolOutstanding, residentObjectCount float64
}

// reconcile closes the stack's books after it has been shut down: each
// node's counters must satisfy requests = hits + peer hits + misses, the
// fleet's sums must equal what the client saw, and every pooled buffer
// not backing a resident object must have been returned. Violations are
// failed checks on rep.
func (st *stack) reconcile(rep *runReport) (ledger, error) {
	var lg ledger
	for _, n := range st.nodes {
		m, err := scrape(n.reg)
		if err != nil {
			return lg, err
		}
		req, hits, peer, miss := m["wcproxy_requests_total"], m["wcproxy_hits_total"], m["wcproxy_peer_hits_total"], m["wcproxy_misses_total"]
		if req != hits+peer+miss {
			rep.fail("%s: requests %v != hits %v + peer hits %v + misses %v", n.name, req, hits, peer, miss)
		}
		lg.requests += req
		lg.hits += hits
		lg.peerHits += peer
		lg.misses += miss
		lg.coalesced += m["wcproxy_coalesced_total"]
		lg.stale += m["wcproxy_stale_served_total"]
		lg.evictions += m["wcproxy_evictions_total"]
		lg.originFetches += m["wcproxy_origin_fetch_seconds_count"]
		lg.uncacheable += m[`wcproxy_uncacheable_total{reason="rules"}`] + m[`wcproxy_uncacheable_total{reason="oversize"}`]
		lg.admitted += m["wcproxy_admission_admitted_total"]
		lg.admRejected += m["wcproxy_admission_rejected_total"]
		lg.ghostHits += m["wcproxy_admission_ghost_hits"]
		lg.peerFetches += m["wcproxy_peer_fetches_total"]
		lg.peerErrors += m["wcproxy_peer_errors_total"]
		ps := n.pool.Stats()
		lg.poolAcquires += float64(ps.Acquires)
		lg.poolNews += float64(ps.News)
		lg.poolBypass += float64(ps.Bypass)
		lg.poolOutstanding += float64(ps.Outstanding())
		lg.residentObjectCount += float64(n.srv.Len())
	}
	seen := &st.seen
	ok := float64(seen.requests - seen.failed)
	// A peer fetch is a request on the owning node too, so the fleet
	// counts each peer-routed client request twice.
	if want := ok + lg.peerFetches - lg.peerErrors; lg.requests != want {
		rep.fail("proxies counted %v requests, client completed %v (+%v peer fetches)", lg.requests, ok, lg.peerFetches-lg.peerErrors)
	}
	if lg.peerHits != float64(seen.peerHits) {
		rep.fail("proxies counted %v peer hits, client saw %v", lg.peerHits, seen.peerHits)
	}
	if len(st.nodes) == 1 && lg.hits != float64(seen.hits) {
		rep.fail("proxy counted %v hits, client saw %v", lg.hits, seen.hits)
	}
	if lg.peerErrors != 0 {
		rep.fail("%v peer fetches failed", lg.peerErrors)
	}
	// A resident object holds exactly one pooled buffer; anything beyond
	// that after shutdown was leaked.
	if leaked := lg.poolOutstanding - lg.residentObjectCount; leaked != 0 {
		rep.fail("%v pooled buffers outstanding beyond the %v resident objects", leaked, lg.residentObjectCount)
	}
	return lg, nil
}

// freshStack generates the workload's input and boots a stack on it,
// fill pass included, and reports how long all of that took: everything
// a run does before its first timed pass.
func freshStack(spec servingSpec, seed int64, requests int, rec *recorder) (*stack, *pass, time.Duration, error) {
	start := time.Now()
	in, err := servingInput(seed, requests)
	if err != nil {
		return nil, nil, 0, err
	}
	st, err := boot(spec, in, rec)
	if err != nil {
		return nil, nil, 0, err
	}
	fill := st.replay()
	return st, fill, time.Since(start), nil
}

// releaseMemory returns a torn-down stack's memory to the OS, so that
// the next boot's peak is its own and rss_mb does not grow with
// setupRepeats.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// passStats are the figures of each repetition of a run — a serving pass
// or an offline pipeline run — that the reported timings are medians of.
type passStats struct {
	reqPerS, p50, p99, cpuUs []float64
	wall, stolen             []time.Duration
}

func (ps *passStats) add(p *pass) {
	done := float64(p.requests - p.failed)
	lat := p.latencies(nil)
	ps.wall = append(ps.wall, p.wall)
	ps.stolen = append(ps.stolen, p.stolen)
	ps.reqPerS = append(ps.reqPerS, done/p.wall.Seconds())
	ps.p50 = append(ps.p50, percentile(lat, 50))
	ps.p99 = append(ps.p99, percentile(lat, 99))
	ps.cpuUs = append(ps.cpuUs, float64(p.cpu.Microseconds())/done)
}

// addPipeline counts one offline pipeline run: an operation is one trace
// event replayed in one cell, a latency sample one cell's replay.
func (ps *passStats) addPipeline(p *pipelineRun) {
	ps.wall = append(ps.wall, p.wall)
	ps.stolen = append(ps.stolen, p.stolen)
	ps.reqPerS = append(ps.reqPerS, p.events()/p.wall.Seconds())
	ps.p50 = append(ps.p50, percentile(p.cellMs, 50))
	ps.p99 = append(ps.p99, percentile(p.cellMs, 99))
	ps.cpuUs = append(ps.cpuUs, float64(p.cpu.Microseconds())/p.events())
}

// timings are a run's medians over the repetitions the hypervisor left
// alone (see usable); counted is how many those were.
type timings struct {
	counted                  int
	reqPerS, p50, p99, cpuUs float64
}

func (ps *passStats) medians() timings {
	use := usable(ps.wall, ps.stolen)
	return timings{
		counted: len(use),
		reqPerS: median(pick(ps.reqPerS, use)),
		p50:     median(pick(ps.p50, use)),
		p99:     median(pick(ps.p99, use)),
		cpuUs:   median(pick(ps.cpuUs, use)),
	}
}

// log puts on record every value the medians were taken over, how many
// repetitions counted, and the timings that are measured but not gated.
func (t timings) log(o options, ps *passStats, unit, one, many string) {
	o.logf("%s of each %s: %s", unit, one, formatSeries(ps.reqPerS))
	o.logf("%d of the %d %s counted; the rest lost more than %.0f%% of processor time to the hypervisor", t.counted, len(ps.wall), many, 100*stolenLimit)
	o.logf("not gated: lat_p50_ms %.6g lat_p99_ms %.6g cpu_us_per_req %.6g", t.p50, t.p99, t.cpuUs)
}

// runServing is the untraced run of a serving workload: setupRepeats cold
// boots (the last one is kept), one discarded settling pass, then
// closed-loop passes for the measuring time. req_per_s is the median of
// the per-pass values, over the passes the hypervisor left alone (see
// usable).
func runServing(name string, o options) (*result, string, error) {
	spec := servingSpecs[name]
	rep := newReport(endToEnd)
	var (
		st       *stack
		setups   []float64
		attempts tally
	)
	for k := 0; k < setupRepeats; k++ {
		s, _, took, err := freshStack(spec, o.seed, o.requests, nil)
		if err != nil {
			return nil, "", err
		}
		setups = append(setups, took.Seconds())
		if k < setupRepeats-1 {
			if err := s.close(); err != nil {
				return nil, "", err
			}
			if _, err := s.reconcile(rep); err != nil {
				return nil, "", err
			}
			attempts.add(&s.seen)
			releaseMemory()
			continue
		}
		st = s
	}
	o.logf("input_digest %s seed %d: %d requests, %d documents, %.1f MiB distinct", st.in.digest, o.seed, len(st.in.list), len(st.in.docs), float64(st.in.distinctBytes)/(1<<20))

	st.replay() // settling pass: heap and pools reach their steady size
	var (
		ps       passStats
		measured tally
	)
	for begin := time.Now(); ; {
		p := st.replay()
		ps.add(p)
		measured.add(&p.tally)
		// Stop where the measuring time is met most closely: when one
		// more pass would overshoot it by more than stopping falls short.
		if len(ps.reqPerS) >= minPasses && time.Since(begin)+p.wall/2 >= o.measure {
			break
		}
	}
	if err := st.close(); err != nil {
		return nil, "", err
	}
	if _, err := st.reconcile(rep); err != nil {
		return nil, "", err
	}
	attempts.add(&st.seen)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, "", err
	}
	o.logf("%d measured passes of %d requests; p99 has %d samples beyond it per pass", len(ps.reqPerS), len(st.in.list), len(st.in.list)/100)
	t := ps.medians()
	t.log(o, &ps, "req/s", "pass", "passes")

	rep.set("req_per_s", t.reqPerS)
	rep.set("hit_rate", ratio(measured.hits, measured.requests-measured.failed))
	rep.set("byte_hit_rate", ratio(measured.hitBytes, measured.bytes))
	rep.set("rss_mb", rss)
	rep.set("setup_s", median(setups))
	return rep.result(attempts.requests, attempts.failed), st.in.digest, nil
}

// minPasses is the fewest measured passes a run reports medians over,
// however short the measuring time.
const minPasses = 3

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
