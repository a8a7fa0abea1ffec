package proxy

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webcachesim/internal/metrics"
)

// fakeOrigin is an in-process http.RoundTripper origin: it counts fetches
// per path, can delay or block responses, and can be told to fail. Driving
// the proxy through it (handler-level, no sockets) keeps the concurrency
// tests fast and deterministic under -race.
type fakeOrigin struct {
	mu      sync.Mutex
	calls   map[string]int
	delay   time.Duration
	failing bool
	// failFirst fails the first N fetches of every path, then recovers —
	// the shape the retry loop exists for.
	failFirst int
	// respHeader is merged into every response, for Cache-Control tests.
	respHeader http.Header
	// block, when set for a path, is received from before responding —
	// the test controls exactly how long that fetch stays in flight.
	block map[string]chan struct{}
}

func newFakeOrigin() *fakeOrigin {
	return &fakeOrigin{calls: map[string]int{}, block: map[string]chan struct{}{}}
}

func (f *fakeOrigin) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	f.mu.Lock()
	f.calls[path]++
	failing := f.failing || f.calls[path] <= f.failFirst
	gate := f.block[path]
	delay := f.delay
	extra := f.respHeader
	f.mu.Unlock()

	if failing {
		return nil, fmt.Errorf("fakeOrigin: connection refused")
	}
	if gate != nil {
		select {
		case <-gate:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	body := fmt.Sprintf("origin-body-of-%s", path)
	h := make(http.Header)
	h.Set("Content-Type", "image/gif")
	for k, vs := range extra {
		h[k] = vs
	}
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader([]byte(body))),
		ContentLength: int64(len(body)),
	}, nil
}

func (f *fakeOrigin) fetches(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[path]
}

func (f *fakeOrigin) setFailing(v bool) {
	f.mu.Lock()
	f.failing = v
	f.mu.Unlock()
}

// absReq builds an absolute-form request, driving the proxy in forward
// mode without a listener.
func absReq(path string) *http.Request {
	return httptest.NewRequest(http.MethodGet, "http://origin.example"+path, nil)
}

// TestConcurrentMissCoalescing is the concurrency regression test for the
// sharded serving path: for every shard count, many goroutines issue
// overlapping GETs for the same and for distinct URLs, and the origin must
// see exactly ONE fetch per URL — the singleflight contract — while the
// byte budget is never overshot and every request is answered with the
// right body. Run under -race this also proves the hot path is
// data-race-free.
func TestConcurrentMissCoalescing(t *testing.T) {
	const (
		urls     = 8
		perURL   = 8 // goroutines hammering each URL
		bodyLen  = len("origin-body-of-/doc0.gif")
		capacity = 1 << 20
	)
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			origin := newFakeOrigin()
			// The origin delay keeps each first fetch in flight long
			// enough for every overlapping requester to join it.
			origin.delay = 30 * time.Millisecond
			reg := metrics.NewRegistry()
			p, err := New(Config{Capacity: capacity, Shards: shards, Transport: origin, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}

			var overshoot atomic.Int64
			stop := make(chan struct{})
			var samplerWG sync.WaitGroup
			samplerWG.Add(1)
			go func() {
				defer samplerWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if u := p.Used(); u > capacity {
							overshoot.Store(u)
							return
						}
					}
				}
			}()

			start := make(chan struct{})
			var wg sync.WaitGroup
			for u := 0; u < urls; u++ {
				path := fmt.Sprintf("/doc%d.gif", u)
				for g := 0; g < perURL; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						rr := httptest.NewRecorder()
						p.ServeHTTP(rr, absReq(path))
						if rr.Code != http.StatusOK {
							t.Errorf("%s: status %d", path, rr.Code)
						}
						if want := "origin-body-of-" + path; rr.Body.String() != want {
							t.Errorf("%s: body %q, want %q", path, rr.Body.String(), want)
						}
					}()
				}
			}
			close(start)
			wg.Wait()
			close(stop)
			samplerWG.Wait()

			for u := 0; u < urls; u++ {
				path := fmt.Sprintf("/doc%d.gif", u)
				if n := origin.fetches(path); n != 1 {
					t.Errorf("%s fetched %d times, want exactly 1 per coalesced miss group", path, n)
				}
			}
			if o := overshoot.Load(); o != 0 {
				t.Errorf("byte budget overshot: used %d > capacity %d", o, capacity)
			}
			st, _ := readCounts(t, reg)
			if st.Requests != urls*perURL {
				t.Errorf("requests = %d, want %d", st.Requests, urls*perURL)
			}
			// Every request beyond the one leader per URL was either
			// coalesced into the leader's fetch or arrived after it
			// completed and hit the cache.
			coalesced := scrape(t, reg)["wcproxy_coalesced_total"]
			if coalesced+st.Hits != urls*(perURL-1) {
				t.Errorf("coalesced(%d)+hits(%d) = %d, want %d",
					coalesced, st.Hits, coalesced+st.Hits, urls*(perURL-1))
			}
			if p.Used() != int64(urls*bodyLen) {
				t.Errorf("used = %d, want %d (all bodies resident once)", p.Used(), urls*bodyLen)
			}
		})
	}
}

// TestConcurrentEvictionPressure drives overlapping GETs over a working
// set larger than the cache, for every shard count: the budget must hold
// under concurrent insert/evict churn and all requests must succeed.
func TestConcurrentEvictionPressure(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			origin := newFakeOrigin()
			const capacity = 100 // ~4 bodies of ~24 bytes
			reg := metrics.NewRegistry()
			p, err := New(Config{Capacity: capacity, Shards: shards, Transport: origin, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			var overshoot atomic.Int64
			stop := make(chan struct{})
			var samplerWG sync.WaitGroup
			samplerWG.Add(1)
			go func() {
				defer samplerWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if u := p.Used(); u > capacity {
							overshoot.Store(u)
							return
						}
					}
				}
			}()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						path := fmt.Sprintf("/doc%d.gif", (g+i)%12)
						rr := httptest.NewRecorder()
						p.ServeHTTP(rr, absReq(path))
						if rr.Code != http.StatusOK {
							t.Errorf("%s: status %d", path, rr.Code)
						}
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			samplerWG.Wait()
			if o := overshoot.Load(); o != 0 {
				t.Errorf("byte budget overshot under eviction churn: %d > %d", o, capacity)
			}
			if u := p.Used(); u > capacity {
				t.Errorf("final used %d exceeds capacity %d", u, capacity)
			}
		})
	}
}

// TestSlowOriginDoesNotBlockOtherURLs pins the lock-scope fix: an origin
// round trip must never happen under any lock a cache hit needs. A fetch
// for URL A is held open indefinitely while a hit on URL B must still be
// served immediately.
func TestSlowOriginDoesNotBlockOtherURLs(t *testing.T) {
	origin := newFakeOrigin()
	release := make(chan struct{})
	origin.mu.Lock()
	origin.block["/slow.gif"] = release
	origin.mu.Unlock()

	p, err := New(Config{Capacity: 1 << 20, Transport: origin, FetchTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	// Prime /fast.gif so the probe below is a pure cache hit.
	rr := httptest.NewRecorder()
	p.ServeHTTP(rr, absReq("/fast.gif"))
	if rr.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("prime: X-Cache = %q", rr.Header().Get("X-Cache"))
	}

	// Park a request on the blocked URL and wait until its fetch is
	// provably in flight at the origin.
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		rr := httptest.NewRecorder()
		p.ServeHTTP(rr, absReq("/slow.gif"))
	}()
	deadline := time.Now().Add(2 * time.Second)
	for origin.fetches("/slow.gif") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow fetch never reached the origin")
		}
		time.Sleep(time.Millisecond)
	}

	// The hit on the other URL must complete while the slow fetch is
	// still parked. The generous bound is for CI noise; the old
	// single-lock design would block until the origin answered.
	hitDone := make(chan string, 1)
	go func() {
		rr := httptest.NewRecorder()
		p.ServeHTTP(rr, absReq("/fast.gif"))
		hitDone <- rr.Header().Get("X-Cache")
	}()
	select {
	case xc := <-hitDone:
		if xc != "HIT" {
			t.Errorf("probe X-Cache = %q, want HIT", xc)
		}
	case <-time.After(2 * time.Second):
		t.Error("cache hit on URL B blocked behind slow origin fetch for URL A")
	}

	close(release)
	select {
	case <-slowDone:
	case <-time.After(5 * time.Second):
		t.Error("slow request never completed after release")
	}
}

// TestCoalescedWaitersShareOneFetch asserts the exact coalescing
// accounting on a single miss group: with the origin gated, N overlapping
// requests for one URL produce one origin fetch, one miss leader, and N-1
// coalesced waiters, all serving the same body.
func TestCoalescedWaitersShareOneFetch(t *testing.T) {
	origin := newFakeOrigin()
	release := make(chan struct{})
	origin.mu.Lock()
	origin.block["/x.gif"] = release
	origin.mu.Unlock()

	reg := metrics.NewRegistry()
	p, err := New(Config{Capacity: 1 << 20, Transport: origin, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	var wg sync.WaitGroup
	var coalescedHdr atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := httptest.NewRecorder()
			p.ServeHTTP(rr, absReq("/x.gif"))
			if rr.Header().Get("X-Coalesced") == "1" {
				coalescedHdr.Add(1)
			}
		}()
	}
	// Release only after every requester is parked on the flight: the
	// origin has seen the leader, and the waiters have nowhere else to
	// go. A short settle gives the last goroutines time to join.
	deadline := time.Now().Add(2 * time.Second)
	for origin.fetches("/x.gif") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader fetch never reached the origin")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := origin.fetches("/x.gif"); got != 1 {
		t.Errorf("origin fetched %d times, want 1", got)
	}
	coalesced := scrape(t, reg)["wcproxy_coalesced_total"]
	if coalesced != coalescedHdr.Load() {
		t.Errorf("server counted %d coalesced, clients saw %d X-Coalesced headers",
			coalesced, coalescedHdr.Load())
	}
	// The leader plus any requester that arrived after completion are
	// non-coalesced; with the gate held until all joined, that is 1.
	if coalesced != n-1 {
		t.Errorf("coalesced = %d, want %d", coalesced, n-1)
	}
	if st, _ := readCounts(t, reg); st.Hits != 0 || st.Requests != n {
		t.Errorf("counts = %+v", st)
	}
}
