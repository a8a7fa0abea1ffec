package proxy

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"webcachesim/internal/doctype"
	"webcachesim/internal/metrics"
	"webcachesim/internal/policy"
	"webcachesim/internal/trace"
)

// newOrigin builds a test origin serving deterministic content per path.
func newOrigin(t *testing.T, hook func(path string)) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hook != nil {
			hook(r.URL.Path)
		}
		switch {
		case strings.HasSuffix(r.URL.Path, ".gif"):
			w.Header().Set("Content-Type", "image/gif")
		case strings.HasSuffix(r.URL.Path, ".html"):
			w.Header().Set("Content-Type", "text/html")
		case strings.HasSuffix(r.URL.Path, ".nostore"):
			w.Header().Set("Cache-Control", "no-store")
		case strings.HasSuffix(r.URL.Path, ".missing"):
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "body-of-%s", r.URL.Path)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// newProxy builds a reverse-mode proxy in front of origin.
func newProxy(t *testing.T, origin *httptest.Server, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	u, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Origin = u
	if cfg.Capacity == 0 {
		cfg.Capacity = 1 << 20
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	return p, front
}

func get(t *testing.T, base, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestProxyHitMiss(t *testing.T) {
	var mu sync.Mutex
	originCalls := map[string]int{}
	origin := newOrigin(t, func(path string) {
		mu.Lock()
		originCalls[path]++
		mu.Unlock()
	})
	reg := metrics.NewRegistry()
	_, front := newProxy(t, origin, Config{Metrics: reg})

	resp, body := get(t, front.URL, "/a.gif")
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Errorf("first request X-Cache = %q, want MISS", resp.Header.Get("X-Cache"))
	}
	if body != "body-of-/a.gif" {
		t.Errorf("body = %q", body)
	}
	resp, body = get(t, front.URL, "/a.gif")
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Errorf("second request X-Cache = %q, want HIT", resp.Header.Get("X-Cache"))
	}
	if body != "body-of-/a.gif" {
		t.Errorf("cached body = %q", body)
	}
	mu.Lock()
	calls := originCalls["/a.gif"]
	mu.Unlock()
	if calls != 1 {
		t.Errorf("origin fetched %d times, want 1", calls)
	}
	st, byClass := readCounts(t, reg)
	if st.Requests != 2 || st.Hits != 1 {
		t.Errorf("counts = %+v", st)
	}
	if byClass[doctype.Image].Hits != 1 {
		t.Errorf("image class hits = %d, want 1", byClass[doctype.Image].Hits)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.HitRate())
	}
}

func TestProxyUncacheableRules(t *testing.T) {
	origin := newOrigin(t, nil)
	p, front := newProxy(t, origin, Config{})

	tests := []struct {
		name string
		path string
	}{
		{"query string", "/page.html?id=1"},
		{"cgi path", "/cgi-bin/run"},
		{"404 status", "/gone.missing"},
		{"no-store", "/secret.nostore"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			get(t, front.URL, tt.path)
			resp, _ := get(t, front.URL, tt.path)
			if resp.Header.Get("X-Cache") != "MISS" {
				t.Errorf("%s was cached", tt.path)
			}
		})
	}
	if p.Len() != 0 {
		t.Errorf("cache holds %d objects, want 0", p.Len())
	}
}

// TestProxyVaryIsNotStored: the store keys on the URL alone, so a
// response that varies by a request header other than Accept-Encoding is
// served but never stored — an en client must not get de's body as a HIT.
func TestProxyVaryIsNotStored(t *testing.T) {
	varies := []struct {
		vary   string
		stored bool
	}{{"Accept-Language", false}, {"*", false}, {"accept-encoding, Accept-Language", false}, {"Accept-Encoding", true}}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var i int
		fmt.Sscanf(r.URL.Path, "/v%d", &i)
		w.Header().Set("Vary", varies[i].vary)
		fmt.Fprintf(w, "body-%s", r.Header.Get("Accept-Language"))
	}))
	t.Cleanup(origin.Close)
	p, _ := newProxy(t, origin, Config{})
	for i, tt := range varies {
		for _, lang := range []string{"de", "en"} {
			req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v%d", i), nil)
			req.Header.Set("Accept-Language", lang)
			rr := httptest.NewRecorder()
			p.ServeHTTP(rr, req)
			hit := rr.Header().Get("X-Cache") == "HIT"
			if hit != (tt.stored && lang == "en") || (!hit && rr.Body.String() != "body-"+lang) {
				t.Errorf("Vary %q, %s: X-Cache %s, body %q", tt.vary, lang, rr.Header().Get("X-Cache"), rr.Body.String())
			}
		}
	}
}

func TestProxyEviction(t *testing.T) {
	origin := newOrigin(t, nil)
	// Bodies are ~15 bytes; capacity of 40 holds two objects. One shard
	// keeps the eviction order exactly LRU — the configuration under
	// which the proxy reproduces the paper's single-policy semantics.
	reg := metrics.NewRegistry()
	p, front := newProxy(t, origin, Config{Capacity: 40, Shards: 1, Metrics: reg})
	get(t, front.URL, "/a.gif")
	get(t, front.URL, "/b.gif")
	get(t, front.URL, "/c.gif") // evicts /a.gif under LRU
	if got := p.Used(); got > 40 {
		t.Errorf("used %d exceeds capacity", got)
	}
	resp, _ := get(t, front.URL, "/a.gif")
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Error("evicted object served as hit")
	}
	if scrape(t, reg)["wcproxy_evictions_total"] == 0 {
		t.Error("no evictions recorded")
	}
}

func TestProxyPolicyPluggable(t *testing.T) {
	origin := newOrigin(t, nil)
	gds := policy.MustFactory(policy.Spec{Scheme: "gds", Cost: policy.ConstantCost{}})
	p, front := newProxy(t, origin, Config{Capacity: 38, Policy: gds, Shards: 1})
	// GDS(1) evicts the largest c/s loser; with equal-cost docs the
	// bigger body goes first.
	get(t, front.URL, "/tiny.gif")          // 17 bytes
	get(t, front.URL, "/bigbigbigname.gif") // 26 bytes -> must evict tiny? no: fits? 17+26=43 > 38 evicts tiny (H smaller for large doc... )
	if p.Used() > 38 {
		t.Errorf("used %d exceeds capacity", p.Used())
	}
	_ = p
}

func TestProxyMethodNotAllowed(t *testing.T) {
	origin := newOrigin(t, nil)
	_, front := newProxy(t, origin, Config{})
	resp, err := http.Post(front.URL+"/a.gif", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}
}

func TestProxyAccessLogFeedsTracePipeline(t *testing.T) {
	origin := newOrigin(t, nil)
	var log strings.Builder
	fixed := time.UnixMilli(982347195744)
	p, front := newProxy(t, origin, Config{
		AccessLog: &log,
		Now:       func() time.Time { return fixed },
	})
	get(t, front.URL, "/a.gif")
	get(t, front.URL, "/a.gif")
	get(t, front.URL, "/b.html")
	front.Close() // every handler has logged its line
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	reqs, err := trace.ReadAll(trace.NewSquidReader(strings.NewReader(log.String())))
	if err != nil {
		t.Fatalf("proxy log did not parse: %v", err)
	}
	if len(reqs) != 3 {
		t.Fatalf("log has %d records, want 3", len(reqs))
	}
	if reqs[0].UnixMillis != fixed.UnixMilli() {
		t.Errorf("timestamp = %d, want %d", reqs[0].UnixMillis, fixed.UnixMilli())
	}
	if reqs[0].ContentType != "image/gif" {
		t.Errorf("content type = %q", reqs[0].ContentType)
	}
	if reqs[0].Classify() != doctype.Image || reqs[2].Classify() != doctype.HTML {
		t.Error("log records misclassified")
	}
	if r, err := trace.NewFilterReader(trace.NewSliceReader(reqs[:1])).Next(); err != nil || r != reqs[0] {
		t.Errorf("log record not cacheable by pipeline rules: %v", err)
	}
}

// The access log is buffered, but not until Close: the flusher writes a
// line out within logFlushEvery of its request.
func TestAccessLogFlushesWithoutClose(t *testing.T) {
	log := &syncBuffer{}
	_, front := newProxy(t, newOrigin(t, nil), Config{AccessLog: log})
	get(t, front.URL, "/a.gif")
	for deadline := time.Now().Add(5 * logFlushEvery); !strings.Contains(log.String(), "/a.gif"); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no log line %v after the request", 5*logFlushEvery)
		}
	}
}

func TestProxyForwardMode(t *testing.T) {
	origin := newOrigin(t, nil)
	p, err := New(Config{Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p)
	defer front.Close()

	// Forward-proxy request with absolute URL.
	client := &http.Client{Transport: &http.Transport{Proxy: func(*http.Request) (*url.URL, error) {
		return url.Parse(front.URL)
	}}}
	resp, err := client.Get(origin.URL + "/fwd.gif")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if string(body) != "body-of-/fwd.gif" {
		t.Errorf("forward body = %q", body)
	}
	resp, err = client.Get(origin.URL + "/fwd.gif")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Error("forward mode second request not a hit")
	}
}

func TestProxyParentChaining(t *testing.T) {
	var originHits int
	var mu sync.Mutex
	origin := newOrigin(t, func(string) {
		mu.Lock()
		originHits++
		mu.Unlock()
	})

	// Parent: a forward proxy with a large cache.
	parentReg := metrics.NewRegistry()
	parent, err := New(Config{Capacity: 1 << 20, Metrics: parentReg})
	if err != nil {
		t.Fatal(err)
	}
	parentSrv := httptest.NewServer(parent)
	defer parentSrv.Close()
	parentURL, err := url.Parse(parentSrv.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Child: a tiny reverse proxy in front of origin, fetching through
	// the parent (Squid cache_peer style) by way of its transport.
	originURL, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	child, err := New(Config{Capacity: 20, Origin: originURL, Transport: &http.Transport{Proxy: http.ProxyURL(parentURL)}})
	if err != nil {
		t.Fatal(err)
	}
	childSrv := httptest.NewServer(child)
	defer childSrv.Close()

	// The body (~15B) never fits the child's 20-byte cache alongside a
	// second doc, so repeated alternating requests keep missing the child
	// but hit the parent; the origin is fetched once per distinct doc.
	for i := 0; i < 3; i++ {
		get(t, childSrv.URL, "/one.gif")
		get(t, childSrv.URL, "/two.gif")
	}
	mu.Lock()
	hits := originHits
	mu.Unlock()
	if hits != 2 {
		t.Errorf("origin fetched %d times, want 2 (parent should absorb repeats)", hits)
	}
	if st, _ := readCounts(t, parentReg); st.Hits == 0 {
		t.Error("parent cache recorded no hits")
	}
}

func TestProxyConfigValidation(t *testing.T) {
	if _, err := New(Config{Capacity: 0}); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestProxyConcurrentClients(t *testing.T) {
	origin := newOrigin(t, nil)
	reg := metrics.NewRegistry()
	p, front := newProxy(t, origin, Config{Capacity: 512, Metrics: reg})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/doc%d.gif", front.URL, (g+i)%10))
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				_, _ = io.ReadAll(resp.Body)
				_ = resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	st, _ := readCounts(t, reg)
	if st.Requests != 240 {
		t.Errorf("requests = %d, want 240", st.Requests)
	}
	if p.Used() > 512 {
		t.Errorf("capacity exceeded under concurrency: %d", p.Used())
	}
}

// failingWriter refuses every write, as a full or vanished log disk does.
type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

// TestCloseReportsAccessLogError: a log line that cannot be written does
// not fail the request it records, so Close is where the loss surfaces.
func TestCloseReportsAccessLogError(t *testing.T) {
	diskGone := errors.New("log disk gone")
	s, _ := reverseProxy(t, Config{AccessLog: failingWriter{diskGone}}, patternOrigin{size: 512})
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/a.gif", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200: a failing log must not fail the request", rr.Code)
	}
	if err := s.Close(); !errors.Is(err, diskGone) {
		t.Errorf("Close = %v, want the log writer's error %v", err, diskGone)
	}
}
