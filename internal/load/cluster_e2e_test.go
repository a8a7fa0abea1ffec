package load_test

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webcachesim/internal/cluster"
	"webcachesim/internal/doctype"
	"webcachesim/internal/hierarchy"
	"webcachesim/internal/load"
	"webcachesim/internal/metrics"
	"webcachesim/internal/proxy"
	"webcachesim/internal/trace"
)

// latebound lets an httptest listener exist before the proxy it serves:
// cluster members need each other's URLs at construction time, so the
// listeners come up first and the handlers are bound once every proxy is
// built.
type latebound struct{ p atomic.Pointer[proxy.Server] }

func (l *latebound) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s := l.p.Load(); s != nil {
		s.ServeHTTP(w, r)
		return
	}
	http.Error(w, "fleet still starting", http.StatusServiceUnavailable)
}

// liveFleet is an in-process consistent-hash fleet on loopback sockets,
// described by the same Topology value the offline simulator consumes.
type liveFleet struct {
	topo    *cluster.Topology
	servers []*proxy.Server
}

// startLiveFleet boots n clustered reverse proxies in full mesh, each
// with its own admin endpoint, and returns them with a topology that
// points at the live listeners. With a parent, origin fetches go through
// it as their HTTP proxy.
func startLiveFleet(t *testing.T, n int, capacity int64, shards int, origin, parent *url.URL) *liveFleet {
	t.Helper()
	handlers := make([]*latebound, n)
	fronts := make([]*httptest.Server, n)
	names := make([]string, n)
	for i := range handlers {
		handlers[i] = &latebound{}
		fronts[i] = httptest.NewServer(handlers[i])
		t.Cleanup(fronts[i].Close)
		names[i] = fmt.Sprintf("n%d", i)
	}
	fl := &liveFleet{topo: &cluster.Topology{}}
	for i := 0; i < n; i++ {
		peers := make(map[string]*url.URL, n-1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			u, err := url.Parse(fronts[j].URL)
			if err != nil {
				t.Fatal(err)
			}
			peers[names[j]] = u
		}
		reg := metrics.NewRegistry()
		cfg := proxy.Config{
			Capacity: capacity,
			Origin:   origin,
			Metrics:  reg,
			Shards:   shards,
			Cluster:  &proxy.ClusterConfig{Self: names[i], Peers: peers},
		}
		if parent != nil {
			cfg.Transport = &http.Transport{Proxy: http.ProxyURL(parent)}
		}
		srv, err := proxy.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		handlers[i].p.Store(srv)
		admin := httptest.NewServer(proxy.AdminHandler(reg))
		t.Cleanup(admin.Close)
		fl.servers = append(fl.servers, srv)
		fl.topo.Nodes = append(fl.topo.Nodes, cluster.Node{
			Name:     names[i],
			URL:      fronts[i].URL,
			Admin:    admin.URL,
			Capacity: strconv.FormatInt(capacity, 10),
		})
	}
	return fl
}

// reqSlice replays a fixed request list as a trace.Reader.
type reqSlice struct {
	reqs []*trace.Request
	i    int
}

func (r *reqSlice) Next() (*trace.Request, error) {
	if r.i >= len(r.reqs) {
		return nil, io.EOF
	}
	req := r.reqs[r.i]
	r.i++
	return req, nil
}

// checkRotation pins the arrival order both engine branches promise —
// request k goes to node k mod N — by its visible consequence: the first
// requests mod N nodes were sent one request more than the rest.
func checkRotation(t *testing.T, rep *load.Report, requests int) {
	t.Helper()
	n := len(rep.Nodes)
	for i, nr := range rep.Nodes {
		want := int64(requests / n)
		if i < requests%n {
			want++
		}
		if got := nr.Tally.Requests + nr.Tally.Errors; got != want {
			t.Errorf("node %s was sent %d requests, want %d (request k to node k mod %d)", nr.Name, got, want, n)
		}
	}
}

// TestClusterEndToEnd drives a 3-node fleet over real sockets with a
// seeded workload and pins the headline clustering guarantee: every
// unique cacheable document is fetched from the origin exactly once
// fleet-wide — the owner's singleflight absorbs both local and
// peer-forwarded concurrency — and every counter on every node
// reconciles with what the clients observed.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback e2e in -short mode")
	}

	var mu sync.Mutex
	fetches := map[string]int{}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		fetches[r.URL.Path]++
		mu.Unlock()
		// A little latency widens the window in which concurrent misses
		// for one doc overlap — the case the singleflight must collapse.
		time.Sleep(time.Millisecond)
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, "body-of-%s-%s", r.URL.Path, strings.Repeat("x", len(r.URL.Path)%32))
	}))
	defer origin.Close()
	originURL, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}

	fl := startLiveFleet(t, 3, 64<<20, 4, originURL, nil)

	// Zipf-skewed references over a few hundred docs: plenty of
	// re-references (hits and peer hits) and plenty of concurrent first
	// references (coalescing, peer-forwarded misses).
	const requests = 3000
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.1, 4, 399)
	urls := make([]string, requests)
	distinct := map[string]bool{}
	for i := range urls {
		path := fmt.Sprintf("/docs/%d.html", zipf.Uint64())
		urls[i] = path
		distinct[path] = true
	}

	// Warm the fleet before the measured run: real fleets have served
	// probes or earlier replays by the time a measured run starts, so
	// reconciliation must work from the counter deltas the run adds, not
	// from process-lifetime totals.
	const warm = "/docs/0.html"
	distinct[warm] = true
	for _, n := range fl.topo.Nodes {
		resp, err := http.Get(n.URL + warm)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close() // drained to EOF above
	}
	before, err := load.ScrapeTopology(fl.topo)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := load.Run(load.Config{
		Topology:    fl.topo,
		Source:      &staticReader{urls: urls},
		Concurrency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Tally.Errors != 0 {
		t.Fatalf("clients saw %d transport errors", rep.Tally.Errors)
	}
	if rep.Tally.Requests != requests {
		t.Fatalf("clients completed %d requests, want %d", rep.Tally.Requests, requests)
	}
	if rep.Tally.Hits+rep.Tally.PeerHits+rep.Tally.Misses != rep.Tally.Requests {
		t.Errorf("fleet tally does not partition: %+v", rep.Tally)
	}
	checkRotation(t, rep, requests)
	// A round-robin spray over a 3-node ring sends ~2/3 of the traffic to
	// a non-owner, so a run with re-references must surface peer hits —
	// and owners still see their own docs, so local hits too.
	if rep.Tally.PeerHits == 0 {
		t.Error("no peer hits: the peer-fetch path never served from a sibling's cache")
	}
	if rep.Tally.Hits == 0 {
		t.Error("no local hits")
	}

	// The clustering contract: one origin fetch per unique doc, ever.
	mu.Lock()
	for path, n := range fetches {
		if n != 1 {
			t.Errorf("origin fetched %s %d times, want exactly 1", path, n)
		}
	}
	if len(fetches) != len(distinct) {
		t.Errorf("origin saw %d distinct docs, workload referenced %d", len(fetches), len(distinct))
	}
	mu.Unlock()

	// Counter-for-counter reconciliation of every node's /metrics against
	// the client-side tallies — on the run's counter delta, so the warm-up
	// traffic above must not disturb it.
	after, err := load.ScrapeTopology(fl.topo)
	if err != nil {
		t.Fatal(err)
	}
	perNode := load.DiffMetrics(after, before)
	if err := load.Reconcile(rep, perNode); err != nil {
		t.Error(err)
	}
	for name, m := range perNode {
		if m["wcproxy_peer_errors_total"] != 0 {
			t.Errorf("node %s: %v peer errors on a healthy fleet", name, m["wcproxy_peer_errors_total"])
		}
	}
}

// TestDiffMetrics pins the delta arithmetic reconciliation depends on:
// series-by-series subtraction, with nodes and series absent from the
// before-scrape counting from zero.
func TestDiffMetrics(t *testing.T) {
	before := map[string]map[string]float64{
		"n0": {"wcproxy_requests_total": 10, "wcproxy_hits_total": 4},
	}
	after := map[string]map[string]float64{
		"n0": {"wcproxy_requests_total": 25, "wcproxy_hits_total": 9, "wcproxy_peer_hits_total": 3},
		"n1": {"wcproxy_requests_total": 7},
	}
	d := load.DiffMetrics(after, before)
	for _, tc := range []struct {
		node, series string
		want         float64
	}{
		{"n0", "wcproxy_requests_total", 15},
		{"n0", "wcproxy_hits_total", 5},
		{"n0", "wcproxy_peer_hits_total", 3},
		{"n1", "wcproxy_requests_total", 7},
	} {
		if got := d[tc.node][tc.series]; got != tc.want {
			t.Errorf("%s %s: got %v, want %v", tc.node, tc.series, got, tc.want)
		}
	}
}

// TestClusterSimLiveParity replays one deterministic trace through the
// same topology twice — once via hierarchy.Cluster (the simulator core)
// and once via a live 3-node fleet with a shared parent proxy — and
// requires the two to agree exactly: per-node request counts, hits and
// hit bytes overall and per document class, and the parent level's
// requests, hits and hit bytes — each live side read from its scrape
// through proxy.ReadCounts. With the
// replay sequential, every cache at one shard, LRU everywhere and no
// admission, there is no legal source of divergence. The run also
// reproduces the arXiv 1202.4880 filtering trend on both sides: the
// parent, fed only the fleet's miss stream, lands below the fleet's hit
// rate.
func TestClusterSimLiveParity(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback e2e in -short mode")
	}

	const (
		nodeCapacity   = 64 << 10
		parentCapacity = 128 << 10
		requests       = 4000
		docs           = 250
	)
	exts := []string{"html", "gif", "mpg"}
	cts := map[string]string{"html": "text/html", "gif": "image/gif", "mpg": "video/mpeg"}
	docPath := func(i uint64) string { return fmt.Sprintf("/par/%d.%s", i, exts[i%3]) }
	docSize := func(i uint64) int { return 600 + int(i*241)%2800 }

	// The origin derives each body deterministically from the path, so
	// the live fleet caches exactly the byte sizes the simulated trace
	// declares.
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		base := strings.TrimPrefix(r.URL.Path, "/par/")
		dot := strings.IndexByte(base, '.')
		if dot < 0 {
			http.NotFound(w, r)
			return
		}
		i, err := strconv.ParseUint(base[:dot], 10, 64)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		body := make([]byte, docSize(i))
		for j := range body {
			body[j] = 'x'
		}
		w.Header().Set("Content-Type", cts[base[dot+1:]])
		_, _ = w.Write(body)
	}))
	defer origin.Close()
	originURL, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}

	// The shared parent: a forward-mode proxy every leaf reaches the
	// origin through, seeing exactly the fleet's merged miss stream.
	parentReg := metrics.NewRegistry()
	parentSrv, err := proxy.New(proxy.Config{Capacity: parentCapacity, Shards: 1, Metrics: parentReg})
	if err != nil {
		t.Fatal(err)
	}
	parentFront := httptest.NewServer(parentSrv)
	defer parentFront.Close()
	parentAdmin := httptest.NewServer(proxy.AdminHandler(parentReg))
	defer parentAdmin.Close()
	parentURL, err := url.Parse(parentFront.URL)
	if err != nil {
		t.Fatal(err)
	}

	fl := startLiveFleet(t, 3, nodeCapacity, 1, originURL, parentURL)
	fl.topo.Parents = []cluster.Node{{
		Name:     "parent",
		URL:      parentFront.URL,
		Admin:    parentAdmin.URL,
		Capacity: strconv.Itoa(parentCapacity),
	}}

	// One deterministic Zipf trace, materialized once and replayed on
	// both sides in identical order. The host part is arbitrary: routing
	// and cache keys derive from the path.
	rng := rand.New(rand.NewSource(9))
	zipf := rand.NewZipf(rng, 1.2, 1, docs-1)
	reqs := make([]*trace.Request, requests)
	urls := make([]string, requests)
	for i := range reqs {
		d := zipf.Uint64()
		u := "http://origin.test" + docPath(d)
		urls[i] = u
		reqs[i] = &trace.Request{
			URL:          u,
			Status:       200,
			TransferSize: int64(docSize(d)),
			DocSize:      int64(docSize(d)),
		}
	}

	rep, err := load.Run(load.Config{
		Topology:   fl.topo,
		Source:     &staticReader{urls: urls},
		Sequential: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tally.Errors != 0 || rep.Tally.Requests != requests {
		t.Fatalf("live replay incomplete: %+v", rep.Tally)
	}
	checkRotation(t, rep, requests)

	sim, err := hierarchy.NewCluster(fl.topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(&reqSlice{reqs: reqs}); err != nil {
		t.Fatal(err)
	}
	res := sim.Results()

	perNode, err := load.ScrapeTopology(fl.topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := load.Reconcile(rep, perNode); err != nil {
		t.Error(err)
	}

	// Per-node parity. The simulator processes each request once, at its
	// owner; a live node additionally counts the requests it forwarded to
	// siblings, so the sim's view is the node's requests minus the peer
	// fetches it sent. Hits need no adjustment: only owners store, so
	// every live local hit is a hit the simulator also saw.
	var fleetHits, fleetReqs int64
	for i, n := range res.Nodes {
		m, ok := perNode[n.Name]
		if !ok {
			t.Fatalf("no metrics scraped for node %s", n.Name)
		}
		if m["wcproxy_peer_errors_total"] != 0 {
			t.Errorf("node %s: %v peer errors break the parity preconditions", n.Name, m["wcproxy_peer_errors_total"])
		}
		sim := n.Result.Overall
		fleetReqs += sim.Requests
		fleetHits += sim.Hits
		live, liveByClass := proxy.ReadCounts(m)
		liveOwned := live.Requests - int64(m["wcproxy_peer_fetches_total"])
		if sim.Requests != liveOwned {
			t.Errorf("node %s requests: sim %d, live %d (requests %d - peer fetches %v)",
				n.Name, sim.Requests, liveOwned, live.Requests, m["wcproxy_peer_fetches_total"])
		}
		if sim.Hits != live.Hits || sim.HitBytes != live.HitBytes {
			t.Errorf("node %s hits: sim %d (%d bytes), live %d (%d bytes)", n.Name, sim.Hits, sim.HitBytes, live.Hits, live.HitBytes)
		}
		for _, c := range doctype.Classes {
			want, got := n.Result.ByClass[c], liveByClass[c]
			if want.Hits != got.Hits || want.HitBytes != got.HitBytes {
				t.Errorf("node %s class %s hits: sim %d (%d bytes), live %d (%d bytes)",
					n.Name, c.Short(), want.Hits, want.HitBytes, got.Hits, got.HitBytes)
			}
		}
		if sim.Hits == 0 {
			t.Errorf("node %s: degenerate parity, no hits at all", res.Nodes[i].Name)
		}
	}
	if fleetReqs != requests {
		t.Fatalf("sim fleet processed %d requests, want %d", fleetReqs, requests)
	}

	// Parent-level parity: the live parent's own scrape against the
	// simulated parent level.
	parent := res.Parents[0].Result.Overall
	parentScrape, err := load.ScrapeMetrics(parentAdmin.URL)
	if err != nil {
		t.Fatal(err)
	}
	pst, _ := proxy.ReadCounts(parentScrape)
	if parent.Requests != pst.Requests {
		t.Errorf("parent requests: sim %d, live %d", parent.Requests, pst.Requests)
	}
	if parent.Hits != pst.Hits || parent.HitBytes != pst.HitBytes {
		t.Errorf("parent hits: sim %d (%d bytes), live %d (%d bytes)", parent.Hits, parent.HitBytes, pst.Hits, pst.HitBytes)
	}
	if parent.Requests != fleetReqs-fleetHits {
		t.Errorf("parent saw %d requests, want the fleet's %d misses", parent.Requests, fleetReqs-fleetHits)
	}

	// The 1202.4880 filtering trend, live: the fleet strips the
	// short-distance re-references, depressing the parent's hit rate.
	fleetHR := float64(fleetHits) / float64(fleetReqs)
	parentHR := float64(pst.Hits) / float64(pst.Requests)
	if fleetHR <= 0.2 {
		t.Fatalf("fleet hit rate %.3f too low for the trend to be meaningful", fleetHR)
	}
	if parentHR >= fleetHR {
		t.Errorf("parent hit rate %.3f >= fleet hit rate %.3f; filtering should depress the upper level",
			parentHR, fleetHR)
	}
}
