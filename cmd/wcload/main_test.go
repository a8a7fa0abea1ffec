package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"webcachesim/internal/load"
	"webcachesim/internal/metrics"
	"webcachesim/internal/proxy"
	"webcachesim/internal/synth"
)

// liveProxy is an in-process reverse proxy on loopback sockets with its
// admin endpoint; paths records what reached its front door, in order.
type liveProxy struct {
	front, admin string

	mu    sync.Mutex
	paths []string
}

func (p *liveProxy) seen() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.paths...)
}

func startProxy(t *testing.T) *liveProxy {
	t.Helper()
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, "body-of-%s", r.URL.Path)
	}))
	t.Cleanup(origin.Close)
	originURL, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv, err := proxy.New(proxy.Config{Capacity: 1 << 20, Origin: originURL, Metrics: reg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := &liveProxy{}
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		p.paths = append(p.paths, r.URL.Path)
		p.mu.Unlock()
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)
	admin := httptest.NewServer(proxy.AdminHandler(reg))
	t.Cleanup(admin.Close)
	p.front, p.admin = front.URL, admin.URL
	return p
}

// topologyFile writes a one-node topology file; admin may be empty.
func topologyFile(t *testing.T, front, admin string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.json")
	doc := fmt.Sprintf(`{"nodes":[{"name":"n1","url":%q,"admin":%q,"capacity":"1MB"}]}`, front, admin)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runJSON runs wcload with -o pointed at a scratch file and decodes the
// report into out.
func runJSON(t *testing.T, out any, args ...string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	if err := run(append(args, "-o", path)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, data)
	}
}

// TestTargetIsAFleetOfOne: a -target replay reports one node named
// "target" whose tally is the run's and partitions.
func TestTargetIsAFleetOfOne(t *testing.T) {
	p := startProxy(t)
	var rep load.Report
	runJSON(t, &rep, "-target", p.front, "-requests", "400", "-concurrency", "4", "-seed", "3")
	if len(rep.Nodes) != 1 || rep.Nodes[0].Name != "target" {
		t.Fatalf("nodes = %+v, want the one node \"target\"", rep.Nodes)
	}
	tl := rep.Tally
	if rep.Nodes[0].Tally != tl {
		t.Errorf("node tally %+v differs from the run's %+v", rep.Nodes[0].Tally, tl)
	}
	if tl.Requests != 400 || tl.Errors != 0 || tl.Hits+tl.PeerHits+tl.Misses != tl.Requests || tl.Hits == 0 || tl.Misses == 0 {
		t.Errorf("tally = %+v, want 400 clean requests partitioned into hits and misses", tl)
	}
	if want := float64(tl.Hits+tl.PeerHits) / float64(tl.Requests); rep.HitRate != want {
		t.Errorf("hitRate = %v, want (hits + peer hits) / requests = %v", rep.HitRate, want)
	}
}

// TestReconcileThroughTopology: the same proxy named by a topology file
// with its admin URL reconciles, warm counters and all.
func TestReconcileThroughTopology(t *testing.T) {
	p := startProxy(t)
	topo := topologyFile(t, p.front, p.admin)
	var rep load.Report
	for i := 0; i < 2; i++ { // the second run starts from warm counters
		runJSON(t, &rep, "-topology", topo, "-requests", "300", "-concurrency", "4", "-reconcile")
	}
	if len(rep.Nodes) != 1 || rep.Nodes[0].Name != "n1" || rep.Tally.Requests != 300 {
		t.Errorf("report = %+v, want 300 requests on node n1", rep)
	}
}

// TestSequentialWithTarget: -sequential overrides -concurrency for a
// -target run too, so the proxy sees the stream in source order.
func TestSequentialWithTarget(t *testing.T) {
	p := startProxy(t)
	var rep load.Report
	runJSON(t, &rep, "-target", p.front, "-requests", "300", "-seed", "5", "-concurrency", "8", "-sequential")
	if rep.Concurrency != 1 || rep.Tally.Requests != 300 {
		t.Fatalf("concurrency = %d, requests = %d; want 1 and 300", rep.Concurrency, rep.Tally.Requests)
	}
	prof, err := synth.ProfileByName("dfn")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := synth.NewGenerator(prof, synth.Options{Seed: 5, Requests: 300})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for req, err := gen.Next(); err == nil; req, err = gen.Next() {
		u, err := url.Parse(req.URL)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, u.Path)
	}
	got := p.seen()
	if len(got) != len(want) {
		t.Fatalf("proxy saw %d requests, source held %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d out of source order: proxy saw %s, source says %s", i, got[i], want[i])
		}
	}
}

// offlineLog holds two requests each for an image, a dynamic URL, a 404
// and a POST: only the image passes the §2 filter.
const offlineLog = `1000000000.000 10 10.0.0.1 TCP_MISS/200 2048 GET http://a.example/logo.gif - DIRECT/10.0.0.9 image/gif
1000000001.000 10 10.0.0.1 TCP_MISS/200 512 GET http://a.example/search?q=x - DIRECT/10.0.0.9 text/html
1000000002.000 10 10.0.0.1 TCP_MISS/404 300 GET http://a.example/missing.html - DIRECT/10.0.0.9 text/html
1000000003.000 10 10.0.0.1 TCP_MISS/200 100 POST http://a.example/form.html - DIRECT/10.0.0.9 text/html
1000000004.000 10 10.0.0.1 TCP_HIT/200 2048 GET http://a.example/logo.gif - NONE/- image/gif
1000000005.000 10 10.0.0.1 TCP_MISS/200 512 GET http://a.example/search?q=x - DIRECT/10.0.0.9 text/html
1000000006.000 10 10.0.0.1 TCP_MISS/404 300 GET http://a.example/missing.html - DIRECT/10.0.0.9 text/html
1000000007.000 10 10.0.0.1 TCP_MISS/200 100 POST http://a.example/form.html - DIRECT/10.0.0.9 text/html
`

// TestOffline: -offline replays the topology through hierarchy.NewCluster
// however the fleet was named — a topology file with capacities runs, a
// bare -target has no capacity to simulate and says so. A trace is
// replayed through the §2 filter, so the twin caches only what the live
// proxy would, and a malformed line is skipped rather than fatal.
func TestOffline(t *testing.T) {
	type result struct {
		Nodes []struct {
			Name   string
			Result struct {
				Overall struct{ Requests, Hits int64 }
			}
		}
	}
	topo := topologyFile(t, "http://127.0.0.1:1", "")
	var res result
	runJSON(t, &res, "-topology", topo, "-requests", "500", "-offline")
	if len(res.Nodes) != 1 || res.Nodes[0].Name != "n1" {
		t.Fatalf("offline result = %+v, want the one node n1", res)
	}
	if o := res.Nodes[0].Result.Overall; o.Requests != 500 || o.Hits == 0 {
		t.Errorf("offline replay counted %+v, want 500 requests and some hits", o)
	}
	dir := t.TempDir()
	for name, body := range map[string]string{
		"clean.log":     offlineLog,
		"malformed.log": offlineLog + "not a squid line\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		var res result
		runJSON(t, &res, "-topology", topo, "-trace", path, "-offline")
		if len(res.Nodes) != 1 {
			t.Fatalf("%s: offline result = %+v, want one node", name, res)
		}
		if o := res.Nodes[0].Result.Overall; o.Requests != 2 || o.Hits != 1 {
			t.Errorf("%s: offline replay counted %+v, want the image's 2 requests and 1 hit", name, o)
		}
	}
	err := run([]string{"-target", "http://127.0.0.1:1", "-requests", "500", "-offline"})
	if err == nil || !strings.Contains(err.Error(), "explicit capacity") {
		t.Errorf("-target -offline: err = %v, want the simulator's missing-capacity error", err)
	}
}

// TestUsageErrors: flag combinations that used to parse and do nothing.
// None of them may send a request.
func TestUsageErrors(t *testing.T) {
	p := startProxy(t)
	noAdmin := topologyFile(t, p.front, "")
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"neither target nor topology": {nil, "exactly one of"},
		"both target and topology":    {[]string{"-target", p.front, "-topology", noAdmin}, "exactly one of"},
		"reconcile without admin":     {[]string{"-topology", noAdmin, "-reconcile"}, "no admin URL"},
		"reconcile with bare target":  {[]string{"-target", p.front, "-reconcile"}, "no admin URL"},
		"reconcile offline":           {[]string{"-topology", noAdmin, "-reconcile", "-offline"}, "-offline"},
		"target is not absolute":      {[]string{"-target", "localhost:8080"}, "absolute"},
		"unknown mode":                {[]string{"-target", p.front, "-mode", "sideways"}, "unknown mode"},
	} {
		err := run(append(tc.args, "-requests", "50"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
	if got := p.seen(); len(got) != 0 {
		t.Errorf("usage errors sent %d requests before failing: %v", len(got), got)
	}
}

// TestRequestsCapsBothHalves: -requests caps a trace once, before the
// live/offline split, so the live proxy and the offline twin replay the
// same first N requests.
func TestRequestsCapsBothHalves(t *testing.T) {
	var log strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&log, "%d.000 10 10.0.0.1 TCP_MISS/200 2048 GET http://a.example/d%d.gif - DIRECT/10.0.0.9 image/gif\n", 1000000000+i, i%3)
	}
	path := filepath.Join(t.TempDir(), "ten.log")
	if err := os.WriteFile(path, []byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	p := startProxy(t)
	topo := topologyFile(t, p.front, p.admin)
	var rep load.Report
	runJSON(t, &rep, "-topology", topo, "-trace", path, "-requests", "4", "-sequential", "-reconcile")
	if got, want := p.seen(), []string{"/d0.gif", "/d1.gif", "/d2.gif", "/d0.gif"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("live replay sent %v, want %v", got, want)
	}
	var res struct {
		Nodes []struct {
			Result struct {
				Overall struct{ Requests, Hits int64 }
			}
		}
	}
	runJSON(t, &res, "-topology", topo, "-trace", path, "-requests", "4", "-offline")
	if len(res.Nodes) != 1 {
		t.Fatalf("offline result = %+v, want one node", res)
	}
	if o := res.Nodes[0].Result.Overall; o.Requests != rep.Tally.Requests || o.Hits != rep.Tally.Hits {
		t.Errorf("offline replay counted %+v, live tally %+v: the halves read different streams", o, rep.Tally)
	}
}
