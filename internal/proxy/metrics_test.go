package proxy_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/metrics"
	"webcachesim/internal/proxy"
)

// newInstrumented builds a reverse proxy in front of a tiny origin, with
// its metrics on a fresh registry.
func newInstrumented(t *testing.T, capacity int64) (*proxy.Server, *metrics.Registry, *httptest.Server) {
	t.Helper()
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, ".gif"):
			w.Header().Set("Content-Type", "image/gif")
		default:
			w.Header().Set("Content-Type", "text/html")
		}
		fmt.Fprintf(w, "body-of-%s", r.URL.Path)
	}))
	t.Cleanup(origin.Close)
	u, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv, err := proxy.New(proxy.Config{Capacity: capacity, Origin: u, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return srv, reg, origin
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr
}

func exposition(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// readCounts scrapes reg and reads the scrape through proxy.ReadCounts.
func readCounts(t *testing.T, reg *metrics.Registry) (core.Counts, core.ClassCounts) {
	t.Helper()
	m, err := metrics.ParseText(strings.NewReader(exposition(t, reg)))
	if err != nil {
		t.Fatal(err)
	}
	return proxy.ReadCounts(m)
}

func TestMetricsCountHitsAndMisses(t *testing.T) {
	srv, reg, _ := newInstrumented(t, 1<<20)
	get(t, srv, "/a.gif") // miss
	get(t, srv, "/a.gif") // hit
	get(t, srv, "/b")     // miss (html)

	out := exposition(t, reg)
	for _, want := range []string{
		"wcproxy_requests_total 3",
		"wcproxy_hits_total 1",
		"wcproxy_misses_total 2",
		`wcproxy_class_requests_total{class="image"} 2`,
		`wcproxy_class_hits_total{class="image"} 1`,
		`wcproxy_class_requests_total{class="html"} 1`,
		"wcproxy_origin_fetch_seconds_count 2",
		"wcproxy_cache_objects 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Bytes saved on the hit equal the body size served from cache.
	wantSaved := fmt.Sprintf("wcproxy_hit_bytes_total %d", len("body-of-/a.gif"))
	if !strings.Contains(out, wantSaved) {
		t.Errorf("exposition missing %q:\n%s", wantSaved, out)
	}
}

func TestMetricsCountEvictions(t *testing.T) {
	// Capacity fits one body (14 bytes each); the second insert evicts.
	srv, reg, _ := newInstrumented(t, 20)
	get(t, srv, "/a.gif")
	get(t, srv, "/b.gif")
	out := exposition(t, reg)
	if !strings.Contains(out, "wcproxy_evictions_total 1") {
		t.Errorf("exposition missing eviction:\n%s", out)
	}
}

// churnScrape drives four goroutines of overlapping GETs through the
// default sixteen shards of a store with room for about ten bodies, waits
// for them, and returns the scrape.
func churnScrape(t *testing.T, path func(doc int) string) map[string]float64 {
	t.Helper()
	srv, reg, _ := newInstrumented(t, 200)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				get(t, srv, path((g*7+i*i)%60))
			}
		}(g)
	}
	wg.Wait()
	m, err := metrics.ParseText(strings.NewReader(exposition(t, reg)))
	if err != nil {
		t.Fatal(err)
	}
	if m["wcproxy_evictions_total"] == 0 {
		t.Fatal("no evictions: the replay did not churn the store")
	}
	return m
}

// TestMetricsShardBytesSumToUsed: after concurrent churn through the
// default sixteen shards, the per-shard byte gauges account for every
// resident byte — at quiescence their sum is wcproxy_cache_used_bytes.
func TestMetricsShardBytesSumToUsed(t *testing.T) {
	m := churnScrape(t, func(doc int) string { return fmt.Sprintf("/doc%d.gif", doc) })
	var sum float64
	for i := 0; i < int(m["wcproxy_cache_shards"]); i++ {
		series := fmt.Sprintf(`wcproxy_cache_shard_used_bytes{shard="%d"}`, i)
		v, ok := m[series]
		if !ok {
			t.Fatalf("scrape has no %s", series)
		}
		sum += v
	}
	if used := m["wcproxy_cache_used_bytes"]; sum != used || used == 0 {
		t.Errorf("shard bytes sum to %v, wcproxy_cache_used_bytes is %v", sum, used)
	}
}

// TestMetricsClassResidentSumsToTotals: after concurrent churn of images
// and pages, the per-class resident gauges account for every resident
// byte and object, and only those two classes hold any. Which of them is
// resident at the end depends on how the goroutines interleave, so
// either may be zero.
func TestMetricsClassResidentSumsToTotals(t *testing.T) {
	m := churnScrape(t, func(doc int) string {
		if doc%3 == 0 {
			return fmt.Sprintf("/page%d.html", doc)
		}
		return fmt.Sprintf("/img%d.gif", doc)
	})
	for _, total := range []struct{ family, sum string }{
		{"wcproxy_class_resident_bytes", "wcproxy_cache_used_bytes"},
		{"wcproxy_class_resident_objects", "wcproxy_cache_objects"},
	} {
		var sum float64
		for c := doctype.Class(0); c <= doctype.NumClasses; c++ {
			series := total.family + `{class="` + c.Short() + `"}`
			v, ok := m[series]
			if !ok {
				t.Fatalf("scrape has no %s", series)
			}
			if v < 0 || v > 0 && c != doctype.Image && c != doctype.HTML {
				t.Errorf("%s = %v", series, v)
			}
			sum += v
		}
		if want := m[total.sum]; sum != want || want == 0 {
			t.Errorf("%s sums to %v, %s is %v", total.family, sum, total.sum, want)
		}
	}
}

func TestMetricsCountOriginErrors(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	u, _ := url.Parse(origin.URL)
	origin.Close() // every fetch now fails
	reg := metrics.NewRegistry()
	// Every attempt is an origin error: the first fetch and its two retries.
	srv, err := proxy.New(proxy.Config{Capacity: 1 << 20, Origin: u, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	rr := get(t, srv, "/x.gif")
	if rr.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", rr.Code)
	}
	out := exposition(t, reg)
	for _, want := range []string{"wcproxy_origin_errors_total 3", "wcproxy_origin_retries_total 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsUncacheable(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		fmt.Fprint(w, "secret")
	}))
	t.Cleanup(origin.Close)
	u, _ := url.Parse(origin.URL)
	reg := metrics.NewRegistry()
	srv, err := proxy.New(proxy.Config{Capacity: 1 << 20, Origin: u, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	get(t, srv, "/s")
	out := exposition(t, reg)
	if !strings.Contains(out, `wcproxy_uncacheable_total{reason="rules"} 1`) {
		t.Errorf("exposition missing uncacheable:\n%s", out)
	}
	if !strings.Contains(out, `wcproxy_uncacheable_total{reason="oversize"} 0`) {
		t.Errorf("exposition missing oversize reason label:\n%s", out)
	}
}

func TestNilMetricsConfigStillWorks(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	t.Cleanup(origin.Close)
	u, _ := url.Parse(origin.URL)
	srv, err := proxy.New(proxy.Config{Capacity: 1 << 20, Origin: u})
	if err != nil {
		t.Fatal(err)
	}
	if rr := get(t, srv, "/p"); rr.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
}

func TestAdminHandler(t *testing.T) {
	srv, reg, _ := newInstrumented(t, 1<<20)
	get(t, srv, "/a.gif")
	admin := proxy.AdminHandler(reg)

	for path, want := range map[string]string{
		"/":             "/metrics",
		"/metrics":      "wcproxy_requests_total 1",
		"/debug/pprof/": "profiles",
	} {
		rr := get(t, admin, path)
		if rr.Code != http.StatusOK {
			t.Errorf("%s: status = %d, want 200", path, rr.Code)
			continue
		}
		body, _ := io.ReadAll(rr.Result().Body)
		if !strings.Contains(string(body), want) {
			t.Errorf("%s: body missing %q:\n%.400s", path, want, body)
		}
	}
	for _, path := range []string{"/nope", "/stats"} {
		if rr := get(t, admin, path); rr.Code != http.StatusNotFound {
			t.Errorf("%s: status = %d, want 404", path, rr.Code)
		}
	}
}
