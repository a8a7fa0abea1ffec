package proxy

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webcachesim/internal/cluster"
	"webcachesim/internal/metrics"
)

// lateHandler lets an httptest server start before the proxy behind it
// exists — the fleet helper's answer to the chicken-and-egg between peer
// URLs (needed at New) and listener addresses (known only after start).
type lateHandler struct {
	p atomic.Pointer[Server]
}

func (h *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := h.p.Load()
	if s == nil {
		http.Error(w, "fleet member not bound yet", http.StatusServiceUnavailable)
		return
	}
	s.ServeHTTP(w, r)
}

// fleet is a set of in-process clustered proxies on loopback; regs[i] is
// servers[i]'s metrics registry.
type fleet struct {
	names   []string
	servers []*Server
	regs    []*metrics.Registry
	fronts  []*httptest.Server
	ring    *cluster.Ring
}

// startFleet spins up n clustered reverse proxies in front of origin,
// each on a registry of its own. mutate, when non-nil, adjusts each
// node's Config before New.
func startFleet(t *testing.T, origin *httptest.Server, n int, mutate func(i int, cfg *Config)) *fleet {
	t.Helper()
	f := &fleet{}
	handlers := make([]*lateHandler, n)
	urls := make(map[string]*url.URL, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		f.names = append(f.names, name)
		handlers[i] = &lateHandler{}
		front := httptest.NewServer(handlers[i])
		t.Cleanup(front.Close)
		f.fronts = append(f.fronts, front)
		u, err := url.Parse(front.URL)
		if err != nil {
			t.Fatal(err)
		}
		urls[name] = u
	}
	originURL, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		peers := make(map[string]*url.URL, n-1)
		for name, u := range urls {
			if name != f.names[i] {
				peers[name] = u
			}
		}
		cfg := Config{
			Capacity: 1 << 20,
			Origin:   originURL,
			Cluster:  &ClusterConfig{Self: f.names[i], Peers: peers},
			Metrics:  metrics.NewRegistry(),
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.servers = append(f.servers, s)
		f.regs = append(f.regs, cfg.Metrics)
		handlers[i].p.Store(s)
	}
	f.ring, err = cluster.NewRing(f.names, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// pathOwnedBy returns a path whose ring owner is the named node.
func (f *fleet) pathOwnedBy(t *testing.T, owner, suffix string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		p := fmt.Sprintf("/owned/%s/%d%s", owner, i, suffix)
		if f.ring.Owner(p) == owner {
			return p
		}
	}
	t.Fatalf("no path owned by %s found", owner)
	return ""
}

// idx returns the fleet index of the named node.
func (f *fleet) idx(t *testing.T, name string) int {
	t.Helper()
	for i, n := range f.names {
		if n == name {
			return i
		}
	}
	t.Fatalf("no node %s", name)
	return -1
}

// peerHeaderSpy is an origin-bound transport that counts requests still
// carrying the fleet-internal loop guard.
type peerHeaderSpy struct{ leaked atomic.Int32 }

func (s *peerHeaderSpy) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Header.Get(PeerHeader) != "" {
		s.leaked.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

func TestClusterPeerHitAndOwnerOnlyStorage(t *testing.T) {
	var mu sync.Mutex
	originFetches := map[string]int{}
	origin := newOrigin(t, func(path string) {
		mu.Lock()
		originFetches[path]++
		mu.Unlock()
	})
	var spy peerHeaderSpy
	f := startFleet(t, origin, 2, func(_ int, cfg *Config) { cfg.Transport = &spy })

	path := f.pathOwnedBy(t, "n0", ".html")
	owner, other := f.idx(t, "n0"), f.idx(t, "n1")

	// Cold request at a non-owner: forwarded to the owner, which misses
	// and fetches the origin — the arrival node reports a plain MISS.
	resp, body := get(t, f.fronts[other].URL, path)
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("cold non-owner request: X-Cache = %q, want MISS", got)
	}
	if want := "body-of-" + path; body != want {
		t.Fatalf("body = %q, want %q", body, want)
	}

	// Warm request at the non-owner: the owner now has it — PEER-HIT.
	resp, body = get(t, f.fronts[other].URL, path)
	if got := resp.Header.Get("X-Cache"); got != "PEER-HIT" {
		t.Fatalf("warm non-owner request: X-Cache = %q, want PEER-HIT", got)
	}
	if want := "body-of-" + path; body != want {
		t.Fatalf("body = %q, want %q", body, want)
	}

	// Owner-only storage: the owner cached the document, the non-owner
	// stored nothing — and the origin was fetched exactly once.
	if got := f.servers[owner].Len(); got != 1 {
		t.Errorf("owner cached %d objects, want 1", got)
	}
	if got := f.servers[other].Len(); got != 0 {
		t.Errorf("non-owner cached %d objects, want 0 (owner-only storage)", got)
	}
	mu.Lock()
	fetches := originFetches[path]
	mu.Unlock()
	if fetches != 1 {
		t.Errorf("origin fetched %d times, want 1", fetches)
	}
	// That one fetch was the owner's, on behalf of a peer-issued request:
	// the loop guard it arrived with is fleet-internal and stops there.
	if n := spy.leaked.Load(); n != 0 {
		t.Errorf("origin was sent %s on %d request(s); the owner must strip it", PeerHeader, n)
	}

	st, _ := readCounts(t, f.regs[other])
	peerHits := scrape(t, f.regs[other])["wcproxy_peer_hits_total"]
	if peerHits != 1 || st.Hits != 0 {
		t.Errorf("non-owner counts: peer hits=%d hits=%d, want 1/0", peerHits, st.Hits)
	}
	if st.Requests != 2 || st.Requests != st.Hits+peerHits+1 { // the cold request was the 1 miss
		t.Errorf("non-owner accounting does not partition: %+v, %d peer hits", st, peerHits)
	}
	ownerStats, _ := readCounts(t, f.regs[owner])
	if ownerStats.Hits != 1 {
		// The peer's second consultation is a local hit at the owner.
		t.Errorf("owner Hits = %d, want 1", ownerStats.Hits)
	}
}

func TestClusterPeerDownFallsBackToOrigin(t *testing.T) {
	origin := newOrigin(t, nil)
	f := startFleet(t, origin, 2, nil)

	// Kill n0: its listener closes, so any peer fetch to it fails at the
	// transport. Requests for n0-owned documents arriving at n1 must
	// still succeed via the origin.
	f.fronts[f.idx(t, "n0")].Close()
	path := f.pathOwnedBy(t, "n0", ".html")
	other := f.idx(t, "n1")

	resp, body := get(t, f.fronts[other].URL, path)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("status=%d X-Cache=%q, want 200 MISS", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if want := "body-of-" + path; body != want {
		t.Fatalf("body = %q, want %q", body, want)
	}
	if got := f.servers[other].metrics.peerErrors.Value(); got != 1 {
		t.Errorf("peer_errors = %d, want 1", got)
	}
	if got := f.servers[other].metrics.peerFetches.Value(); got != 1 {
		t.Errorf("peer_fetches = %d, want 1", got)
	}
}

func TestClusterPeerTimeoutFallsBackToOrigin(t *testing.T) {
	origin := newOrigin(t, nil)
	// A sibling that never answers: the handler parks until the client
	// gives up (the request context ends when the peer fetch times out).
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(stuck.Close)
	stuckURL, err := url.Parse(stuck.URL)
	if err != nil {
		t.Fatal(err)
	}

	originURL, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Capacity: 1 << 20,
		Origin:   originURL,
		Cluster: &ClusterConfig{
			Self:        "n1",
			Peers:       map[string]*url.URL{"n0": stuckURL},
			PeerTimeout: 50 * time.Millisecond,
			// Peer fetches must not share the client's pooled transport:
			// a separate transport keeps the timed-out connection from
			// poisoning unrelated tests.
			Transport: &http.Transport{},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(s)
	t.Cleanup(front.Close)

	ring, err := cluster.NewRing([]string{"n0", "n1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := ""
	for i := 0; i < 10000 && path == ""; i++ {
		p := fmt.Sprintf("/slow/%d.html", i)
		if ring.Owner(p) == "n0" {
			path = p
		}
	}
	start := time.Now()
	resp, body := get(t, front.URL, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if want := "body-of-" + path; body != want {
		t.Fatalf("body = %q, want %q", body, want)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("request took %v; peer timeout did not bound the stall", elapsed)
	}
	if got := s.metrics.peerErrors.Value(); got != 1 {
		t.Errorf("peer_errors = %d, want 1", got)
	}
}

func TestClusterNonAuthoritativePeerAnswer(t *testing.T) {
	origin := newOrigin(t, nil)
	// A sibling that is up but broken: it answers 502 without X-Cache,
	// as the proxy's own error paths do. That must count as a peer error
	// and fall through to the origin, not be relayed to the client.
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "upstream: dead", http.StatusBadGateway)
	}))
	t.Cleanup(broken.Close)
	brokenURL, err := url.Parse(broken.URL)
	if err != nil {
		t.Fatal(err)
	}
	originURL, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Capacity: 1 << 20,
		Origin:   originURL,
		Cluster:  &ClusterConfig{Self: "n1", Peers: map[string]*url.URL{"n0": brokenURL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(s)
	t.Cleanup(front.Close)

	ring, err := cluster.NewRing([]string{"n0", "n1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := ""
	for i := 0; i < 10000 && path == ""; i++ {
		p := fmt.Sprintf("/broken/%d.html", i)
		if ring.Owner(p) == "n0" {
			path = p
		}
	}
	resp, body := get(t, front.URL, path)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("status=%d X-Cache=%q, want 200 MISS from origin fallback",
			resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if want := "body-of-" + path; body != want {
		t.Fatalf("body = %q, want %q", body, want)
	}
	if got := s.metrics.peerErrors.Value(); got != 1 {
		t.Errorf("peer_errors = %d, want 1", got)
	}
}

func TestClusterLoopGuard(t *testing.T) {
	origin := newOrigin(t, nil)
	f := startFleet(t, origin, 2, nil)

	// Issue a request to n1 for an n0-owned document with the loop-guard
	// header already set, as if n1 were itself the consulted peer. n1
	// must serve it locally — never forwarding — so n0 sees nothing and
	// n1's peer_fetches stays zero.
	path := f.pathOwnedBy(t, "n0", ".html")
	other := f.idx(t, "n1")

	req, err := http.NewRequest(http.MethodGet, f.fronts[other].URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(PeerHeader, "n9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("X-Cache = %q, want MISS (served locally)", got)
	}
	if got := f.servers[other].metrics.peerFetches.Value(); got != 0 {
		t.Errorf("peer_fetches = %d, want 0 — the loop guard must stop re-routing", got)
	}
	if got, _ := readCounts(t, f.regs[f.idx(t, "n0")]); got.Requests != 0 {
		t.Errorf("owner saw %d requests, want 0", got.Requests)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	originURL, err := url.Parse("http://origin.example")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := url.Parse("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"forward mode", Config{Capacity: 1 << 20,
			Cluster: &ClusterConfig{Self: "a", Peers: map[string]*url.URL{"b": peer}}}},
		{"no self", Config{Capacity: 1 << 20, Origin: originURL,
			Cluster: &ClusterConfig{Peers: map[string]*url.URL{"b": peer}}}},
		{"no peers", Config{Capacity: 1 << 20, Origin: originURL,
			Cluster: &ClusterConfig{Self: "a"}}},
		{"self in peers", Config{Capacity: 1 << 20, Origin: originURL,
			Cluster: &ClusterConfig{Self: "a", Peers: map[string]*url.URL{"a": peer}}}},
		{"nil peer URL", Config{Capacity: 1 << 20, Origin: originURL,
			Cluster: &ClusterConfig{Self: "a", Peers: map[string]*url.URL{"b": nil}}}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: New succeeded, want error", c.name)
		}
	}
}

func TestUpdateClusterRequiresCluster(t *testing.T) {
	origin := newOrigin(t, nil)
	p, _ := newProxy(t, origin, Config{})
	err := p.UpdateCluster(ClusterConfig{Self: "a", Peers: map[string]*url.URL{"b": {Scheme: "http", Host: "x"}}})
	if err == nil {
		t.Fatal("UpdateCluster on an unclustered proxy must fail: its peer counters were never registered")
	}
}

// TestClusterJoinMidRun drives a 3-node fleet whose first two members
// start with a 2-node ring, then — with load in flight — grows both
// rings to include the third node. Nothing may panic or race, every
// response must be correct, and no document may be fetched from the
// origin more than twice (once by its old owner, once by its new one).
func TestClusterJoinMidRun(t *testing.T) {
	var mu sync.Mutex
	originFetches := map[string]int{}
	origin := newOrigin(t, func(path string) {
		mu.Lock()
		originFetches[path]++
		mu.Unlock()
	})
	f := startFleet(t, origin, 3, nil)

	// Shrink n0 and n1 to a 2-node view; n2 keeps the full ring (it only
	// serves peer-guarded traffic until the others learn about it).
	urls := make(map[string]*url.URL, 3)
	for i, front := range f.fronts {
		u, err := url.Parse(front.URL)
		if err != nil {
			t.Fatal(err)
		}
		urls[f.names[i]] = u
	}
	for _, self := range []string{"n0", "n1"} {
		if err := f.servers[f.idx(t, self)].UpdateCluster(ClusterConfig{
			Self:  self,
			Peers: map[string]*url.URL{otherOf(self): urls[otherOf(self)]},
		}); err != nil {
			t.Fatal(err)
		}
	}

	const docs = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := fmt.Sprintf("/join/%d.html", i%docs)
				front := f.fronts[(c+i)%2] // drive the two original nodes
				resp, err := http.Get(front.URL + path)
				if err != nil {
					t.Errorf("request failed: %v", err)
					return
				}
				body := drainString(t, resp)
				if want := "body-of-" + path; body != want {
					t.Errorf("body = %q, want %q", body, want)
					return
				}
			}
		}(c)
	}

	time.Sleep(50 * time.Millisecond)
	// The join: both original members swap in the 3-node ring mid-load.
	for _, self := range []string{"n0", "n1"} {
		peers := make(map[string]*url.URL, 2)
		for name, u := range urls {
			if name != self {
				peers[name] = u
			}
		}
		if err := f.servers[f.idx(t, self)].UpdateCluster(ClusterConfig{Self: self, Peers: peers}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for path, n := range originFetches {
		if n > 2 {
			t.Errorf("%s fetched from origin %d times; ownership can change at most once", path, n)
		}
	}
}

func otherOf(self string) string {
	if self == "n0" {
		return "n1"
	}
	return "n0"
}

func drainString(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return string(b)
}
