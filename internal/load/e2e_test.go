package load_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"webcachesim/internal/admission"
	"webcachesim/internal/cluster"
	"webcachesim/internal/load"
	"webcachesim/internal/metrics"
	"webcachesim/internal/proxy"
	"webcachesim/internal/synth"
	"webcachesim/internal/trace"
)

// staticReader replays a fixed URL list as a trace.Reader.
type staticReader struct {
	urls []string
	i    int
}

func (r *staticReader) Next() (*trace.Request, error) {
	if r.i >= len(r.urls) {
		return nil, io.EOF
	}
	u := r.urls[r.i]
	r.i++
	return &trace.Request{URL: u}, nil
}

// oneNode is a single proxy as the load engine sees it: a fleet of one.
func oneNode(frontURL, adminURL string) *cluster.Topology {
	return &cluster.Topology{Nodes: []cluster.Node{{Name: "target", URL: frontURL, Admin: adminURL}}}
}

// reconciled scrapes the topology and runs load.Reconcile on the report,
// returning the one node's series for the test's own rows.
func reconciled(t *testing.T, topo *cluster.Topology, rep *load.Report) map[string]float64 {
	t.Helper()
	perNode, err := load.ScrapeTopology(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := load.Reconcile(rep, perNode); err != nil {
		t.Error(err)
	}
	return perNode[topo.Nodes[0].Name]
}

// TestEndToEndLoadAgainstProxy is the full loopback stack: a real origin,
// a wcproxy serving real sockets with its admin endpoint, and the wcload
// engine replaying a synthetic workload against it. The proxy's /metrics
// counters must reconcile exactly with the client-side tallies wcload
// derives from response headers — every request accounted for on both
// sides of the wire.
func TestEndToEndLoadAgainstProxy(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback e2e in -short mode")
	}

	// Origin: deterministic bodies, sized by path for variety. A small
	// artificial latency makes overlapping misses coalesce-able.
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, "body-of-%s-%s", r.URL.Path, strings.Repeat("x", len(r.URL.Path)%32))
	}))
	defer origin.Close()
	originURL, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	srv, err := proxy.New(proxy.Config{
		Capacity: 256 << 10,
		Origin:   originURL,
		Metrics:  reg,
		Shards:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	defer front.Close()
	admin := httptest.NewServer(proxy.AdminHandler(reg))
	defer admin.Close()
	topo := oneNode(front.URL, admin.URL)

	prof, err := synth.ProfileByName("dfn")
	if err != nil {
		t.Fatal(err)
	}
	const requests = 2000
	gen, err := synth.NewGenerator(prof, synth.Options{Seed: 7, Requests: requests})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := load.Run(load.Config{
		Topology:    topo,
		Source:      gen.Reader(),
		Mode:        load.Reverse,
		Concurrency: 8,
		Requests:    requests,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Client-side sanity before reconciling: everything completed, the
	// tally partitions, and a synthetic workload replay against an empty
	// cache produced both hits and misses.
	if rep.Tally.Errors != 0 {
		t.Fatalf("client saw %d transport errors", rep.Tally.Errors)
	}
	if rep.Tally.Requests != requests {
		t.Fatalf("client completed %d requests, want %d", rep.Tally.Requests, requests)
	}
	if rep.Tally.Hits+rep.Tally.Misses != rep.Tally.Requests {
		t.Errorf("client tally does not partition: hits %d + misses %d != requests %d",
			rep.Tally.Hits, rep.Tally.Misses, rep.Tally.Requests)
	}
	if rep.Tally.Hits == 0 || rep.Tally.Misses == 0 {
		t.Errorf("degenerate replay: hits %d, misses %d", rep.Tally.Hits, rep.Tally.Misses)
	}
	if rep.Throughput <= 0 || rep.Latency.P50 <= 0 || rep.Latency.Max < rep.Latency.P99 {
		t.Errorf("implausible report: %+v", rep)
	}

	// Reconcile against the proxy's /metrics exposition, counter by
	// counter. The server counted every request the clients made, agreed
	// on every cache outcome, and the invariants hold on its side too.
	m := reconciled(t, topo, rep)
	for name, want := range map[string]float64{
		"wcproxy_requests_total":     float64(rep.Tally.Requests),
		"wcproxy_hits_total":         float64(rep.Tally.Hits),
		"wcproxy_misses_total":       float64(rep.Tally.Misses),
		"wcproxy_coalesced_total":    float64(rep.Tally.Coalesced),
		"wcproxy_stale_served_total": float64(rep.Tally.Stale),
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), client-side tally says %v", name, got, ok, want)
		}
	}
	if m["wcproxy_hits_total"]+m["wcproxy_misses_total"] != m["wcproxy_requests_total"] {
		t.Errorf("server counters do not partition: %v + %v != %v",
			m["wcproxy_hits_total"], m["wcproxy_misses_total"], m["wcproxy_requests_total"])
	}
	if used, cap := m["wcproxy_cache_used_bytes"], m["wcproxy_cache_capacity_bytes"]; used > cap {
		t.Errorf("cache overshoot visible in metrics: used %v > capacity %v", used, cap)
	}
	if m["wcproxy_cache_shards"] != 4 {
		t.Errorf("wcproxy_cache_shards = %v, want 4", m["wcproxy_cache_shards"])
	}

	// The scrape read as the paper's counts: the requests and hits the
	// clients tallied, and every body byte they received.
	if st, _ := proxy.ReadCounts(m); st.Requests != rep.Tally.Requests || st.Hits != rep.Tally.Hits || st.ReqBytes != rep.Tally.Bytes {
		t.Errorf("ReadCounts %+v disagrees with client tally %+v", st, rep.Tally)
	}
}

// TestEndToEndAdmissionReconciles runs the loopback stack with a TinyLFU
// filter on a cache small enough to force contested inserts. The proxy
// sets X-Admission: reject only on the miss leader's response, so the
// client-side count must equal wcproxy_admission_rejected_total exactly,
// even with coalescing in play.
func TestEndToEndAdmissionReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback e2e in -short mode")
	}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, "body-of-%s-%s", r.URL.Path, strings.Repeat("x", len(r.URL.Path)%32))
	}))
	defer origin.Close()
	originURL, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	srv, err := proxy.New(proxy.Config{
		Capacity:  4 << 10, // a few dozen bodies: eviction pressure from the start
		Origin:    originURL,
		Metrics:   reg,
		Shards:    2,
		Admission: admission.MustSpec("tinylfu"),
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	defer front.Close()
	admin := httptest.NewServer(proxy.AdminHandler(reg))
	defer admin.Close()
	topo := oneNode(front.URL, admin.URL)

	prof, err := synth.ProfileByName("dfn")
	if err != nil {
		t.Fatal(err)
	}
	const requests = 2000
	gen, err := synth.NewGenerator(prof, synth.Options{Seed: 11, Requests: requests})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := load.Run(load.Config{
		Topology:    topo,
		Source:      gen.Reader(),
		Mode:        load.Reverse,
		Concurrency: 8,
		Requests:    requests,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tally.Errors != 0 || rep.Tally.Requests != requests {
		t.Fatalf("tally = %+v, want %d clean requests", rep.Tally, requests)
	}
	if rep.Tally.AdmissionRejects == 0 {
		t.Error("a 4KB TinyLFU cache under a 2000-request replay should reject some inserts")
	}

	m := reconciled(t, topo, rep)
	if got, want := m["wcproxy_admission_rejected_total"], float64(rep.Tally.AdmissionRejects); got != want {
		t.Errorf("wcproxy_admission_rejected_total = %v, client counted %v X-Admission rejects", got, want)
	}
	if m["wcproxy_admission_admitted_total"] <= 0 {
		t.Errorf("wcproxy_admission_admitted_total = %v, want > 0", m["wcproxy_admission_admitted_total"])
	}
}

// TestEndToEndForwardMode exercises the forward addressing mode over
// loopback: wcload uses the proxy as an HTTP proxy and the absolute
// trace URL reaches the origin unchanged.
func TestEndToEndForwardMode(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback e2e in -short mode")
	}
	var seen []string
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = append(seen, r.URL.Path)
		io.WriteString(w, "fwd-body")
	}))
	defer origin.Close()
	originURL, _ := url.Parse(origin.URL)

	srv, err := proxy.New(proxy.Config{Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	defer front.Close()

	reqs := staticReader{urls: []string{
		originURL.String() + "/one.html",
		originURL.String() + "/one.html",
		originURL.String() + "/two.html",
	}}
	rep, err := load.Run(load.Config{
		Topology:    oneNode(front.URL, ""),
		Source:      &reqs,
		Mode:        load.Forward,
		Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tally.Requests != 3 || rep.Tally.Hits != 1 || rep.Tally.Errors != 0 {
		t.Errorf("tally = %+v, want 3 requests / 1 hit / 0 errors", rep.Tally)
	}
	if len(seen) != 2 {
		t.Errorf("origin saw %d fetches %v, want 2 (one per distinct URL)", len(seen), seen)
	}
}
