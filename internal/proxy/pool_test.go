package proxy

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"webcachesim/internal/admission"
	"webcachesim/internal/metrics"
	"webcachesim/internal/policy"
	"webcachesim/internal/pool"
	"webcachesim/internal/trace"
)

// patternOrigin is an in-process origin whose bodies are a deterministic
// pure function of the path — every byte checkable by the client. That is
// what makes the evict-while-serving test sharper than -race alone:
// sync.Pool reuse establishes happens-before edges, so a buffer recycled
// too early would not necessarily trip the race detector, but it WOULD
// corrupt the checksummed body a reader is writing out.
type patternOrigin struct {
	size int
}

func patternBody(path string, size int) []byte {
	b := make([]byte, size)
	x := trace.Hash64(path)
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}

func (o patternOrigin) RoundTrip(req *http.Request) (*http.Response, error) {
	body := patternBody(req.URL.Path, o.size)
	h := make(http.Header)
	h.Set("Content-Type", "image/gif")
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
	}, nil
}

// nopWriter is a ResponseWriter that discards everything — the
// AllocsPerRun harness for the serving path itself, with net/http's own
// response machinery out of the measurement.
type nopWriter struct {
	h http.Header
}

func (n *nopWriter) Header() http.Header         { return n.h }
func (n *nopWriter) WriteHeader(int)             {}
func (n *nopWriter) Write(b []byte) (int, error) { return len(b), nil }

// reverseProxy builds a reverse-mode server over an in-process origin
// with a private buffer pool.
func reverseProxy(t testing.TB, cfg Config, rt http.RoundTripper) (*Server, *pool.Pool) {
	t.Helper()
	origin, err := url.Parse("http://origin.example")
	if err != nil {
		t.Fatal(err)
	}
	p := pool.New()
	cfg.Origin = origin
	cfg.Transport = rt
	cfg.Buffers = p
	if cfg.Capacity == 0 {
		cfg.Capacity = 1 << 20
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

// TestHitPathZeroAlloc is the serving path's headline invariant: a
// request the cache answers itself performs zero heap allocations — key
// assembly, lookup, refcounting, policy and admission touch, metrics and
// header writes included. The churn row runs the benchmark's serve_churn
// configuration (GD*(P) under TinyLFU, room for 3 % of the key space), so
// hits are interleaved with misses, inserts and evictions; only calls
// that answer X-Cache: HIT during the measured call are counted, which a
// list of "hot" requests collected beforehand cannot guarantee.
func TestHitPathZeroAlloc(t *testing.T) {
	const (
		keys     = 400
		bodySize = 2 << 10
	)
	tinylfu, err := admission.ParseSpec("tinylfu")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"lru/none", Config{Capacity: 2 * keys * bodySize}},
		{"gdstar:p/tinylfu/3pct", Config{
			Capacity:  keys * bodySize * 3 / 100,
			Policy:    policy.MustFactory(policy.Spec{Scheme: "gdstar", Cost: policy.PacketCost{}}),
			Admission: tinylfu,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// As testing.AllocsPerRun does: one P, so no other goroutine's
			// allocations land between two readings — set before the
			// warm-up, which fills this P's sync.Pool caches.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			reg := metrics.NewRegistry()
			tc.cfg.Metrics = reg
			s, _ := reverseProxy(t, tc.cfg, patternOrigin{size: bodySize})
			// A skewed reference stream, so the small cache keeps a hot
			// set resident while the tail churns through it.
			rng := rand.New(rand.NewPCG(1, 2))
			reqs := make([]*http.Request, 6*keys)
			for i := range reqs {
				k := int(float64(keys) * rng.Float64() * rng.Float64() * rng.Float64())
				reqs[i] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/doc%d.gif", k), nil)
			}
			w := &nopWriter{h: make(http.Header)}
			for _, r := range reqs {
				s.ServeHTTP(w, r)
			}

			var before, after runtime.MemStats
			countsBefore, _ := readCounts(t, reg)
			var hits, hitAllocs, misses uint64
			for _, r := range reqs {
				clear(w.h)
				runtime.ReadMemStats(&before)
				s.ServeHTTP(w, r)
				runtime.ReadMemStats(&after)
				if v := w.h["X-Cache"]; len(v) == 1 && v[0] == "HIT" {
					hits++
					hitAllocs += after.Mallocs - before.Mallocs
				} else {
					misses++
				}
			}
			if hits == 0 {
				t.Fatal("measured pass served no hit")
			}
			if churn := tc.cfg.Admission.New != nil; churn != (misses > 0) {
				t.Fatalf("measured pass: %d hits, %d misses; want misses only in the churn row", hits, misses)
			}
			// Whole allocations per hit, as testing.AllocsPerRun counts: a
			// GC emptying a sync.Pool between two hits costs the next one
			// a fresh scratch buffer, which is not a per-hit cost.
			if perHit := hitAllocs / hits; perHit != 0 {
				t.Errorf("%d hits allocated %d objects (%d per hit), want 0 per hit", hits, hitAllocs, perHit)
			}
			countsAfter, _ := readCounts(t, reg)
			if got := countsAfter.Hits - countsBefore.Hits; got != int64(hits) {
				t.Errorf("accounting drifted: %d X-Cache: HIT responses, hit counter moved %d", hits, got)
			}
		})
	}
}

// TestFastKeyFallback pins that requests the fast key path cannot
// represent byte-identically (escaped path bytes) fall back to the
// general path and still hit the same cache namespace.
func TestFastKeyFallback(t *testing.T) {
	s, _ := reverseProxy(t, Config{}, patternOrigin{size: 512})
	// "/a b.gif" arrives with RawPath "/a%20b.gif" — not fast-keyable.
	req := httptest.NewRequest(http.MethodGet, "http://origin.example/a%20b.gif", nil)
	want := patternBody("/a b.gif", 512)

	first := httptest.NewRecorder()
	s.ServeHTTP(first, req)
	if first.Header().Get("X-Cache") != "MISS" || !bytes.Equal(first.Body.Bytes(), want) {
		t.Fatalf("first: X-Cache=%q bodyOK=%v", first.Header().Get("X-Cache"), bytes.Equal(first.Body.Bytes(), want))
	}
	second := httptest.NewRecorder()
	s.ServeHTTP(second, req)
	if second.Header().Get("X-Cache") != "HIT" || !bytes.Equal(second.Body.Bytes(), want) {
		t.Fatalf("second: X-Cache=%q bodyOK=%v", second.Header().Get("X-Cache"), bytes.Equal(second.Body.Bytes(), want))
	}
}

// TestBodySizedByContentLength pins the fetch stage's sizing contract: a
// body whose length the origin declares is read into the one slot cl+1
// names — one acquire, no Grow step, no abandoned intermediate slot —
// whatever the length up to MaxObjectBytes; a chunked body, whose length
// nobody declared, still arrives byte-identical through Grow.
func TestBodySizedByContentLength(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		if r.URL.Path == "/chunked.bin" {
			body := patternBody(r.URL.Path, 100<<10)
			for len(body) > 0 {
				n := min(len(body), 10<<10)
				_, _ = w.Write(body[:n])
				w.(http.Flusher).Flush()
				body = body[n:]
			}
			return
		}
		n, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/len/"))
		if err != nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(n))
		_, _ = w.Write(patternBody(r.URL.Path, n))
	}))
	t.Cleanup(origin.Close)
	u, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	// miss serves path once on a fresh server and pool, checks the body,
	// and returns the pool's ledger: the key scratch (one 512 B slot, held
	// through the request) plus whatever the body took.
	miss := func(path string, size int) pool.Stats {
		t.Helper()
		p := pool.New()
		s, err := New(Config{Capacity: 64 << 20, Origin: u, Transport: origin.Client().Transport, Buffers: p})
		if err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		if rr.Header().Get("X-Cache") != "MISS" || !bytes.Equal(rr.Body.Bytes(), patternBody(path, size)) {
			t.Fatalf("%s: X-Cache %q, %d bytes; want a MISS with the origin's %d", path, rr.Header().Get("X-Cache"), rr.Body.Len(), size)
		}
		if s.Len() != 1 {
			t.Fatalf("%s: %d entries cached, want 1", path, s.Len())
		}
		st := p.Stats()
		if st.Outstanding() != 1 || st.Bypass != 0 {
			t.Fatalf("%s: pool %+v; want the entry's body outstanding and nothing else", path, st)
		}
		return st
	}
	for _, cl := range []int{0, 1, 511, 512, 64<<10 - 1, 64 << 10, 100 << 10, 3 << 20, DefaultMaxObjectBytes} {
		st := miss("/len/"+strconv.Itoa(cl), cl)
		if st.Acquires != 2 {
			t.Errorf("Content-Length %d: %d acquires, want 2 (key scratch and one body slot)", cl, st.Acquires)
		}
		if slot, want := st.ArenaBytes-pool.MinClassBytes, int64(pool.New().Get(cl+1).Len()); slot != want {
			t.Errorf("Content-Length %d: body slots carved %d bytes, want %d: one slot of cl+1's class", cl, slot, want)
		}
	}
	if st := miss("/chunked.bin", 100<<10); st.Acquires < 3 {
		t.Errorf("chunked body: %d acquires; want the key scratch and at least one Grow step", st.Acquires)
	}
}

// TestEvictWhileServingChecksum hammers a key space twice the cache's
// capacity from many goroutines, so entries are constantly evicted while
// other goroutines are mid-serve on them. Every response body must be
// byte-exact: a pooled buffer recycled before its last reader finished
// would surface here as a corrupted body (and, usually, as a -race
// report on the body bytes). The 192 KiB row takes the classes whose
// released slots read as zero pages on Linux, so a read after release
// there is a checksum failure even when the slot is not reused.
func TestEvictWhileServingChecksum(t *testing.T) {
	for _, bodySize := range []int{2 << 10, 192 << 10} {
		t.Run(strconv.Itoa(bodySize), func(t *testing.T) { evictWhileServing(t, bodySize) })
	}
}

func evictWhileServing(t *testing.T, bodySize int) {
	const (
		keys    = 64
		workers = 8
		perW    = 300
	)
	// Capacity fits ~half the key space: steady eviction churn.
	s, p := reverseProxy(t, Config{Capacity: int64(keys / 2 * bodySize), Shards: 4},
		patternOrigin{size: bodySize})
	want := make([][]byte, keys)
	for k := range want {
		want[k] = patternBody(fmt.Sprintf("/obj%d.gif", k), bodySize)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 42))
			for i := 0; i < perW; i++ {
				k := rng.IntN(keys)
				path := fmt.Sprintf("/obj%d.gif", k)
				rr := httptest.NewRecorder()
				s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
				if rr.Code != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", path, rr.Code)
					return
				}
				if !bytes.Equal(rr.Body.Bytes(), want[k]) {
					errs <- fmt.Errorf("%s: body corrupted (served %d bytes)", path, rr.Body.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.store.Used() > s.cfg.Capacity {
		t.Fatalf("byte budget overshot: %d > %d", s.store.Used(), s.cfg.Capacity)
	}
	if p.Stats().Outstanding() < int64(s.store.Len()) {
		t.Fatalf("outstanding %d < resident %d", p.Stats().Outstanding(), s.store.Len())
	}
}

// TestPoolBalanceAfterDrain is the acquire/release ledger check: after
// traffic that exercises hits, misses, evictions, replacement and the
// oversize streaming path, removing every resident entry must return
// every pooled buffer — Outstanding() goes to exactly zero. Any missing
// Release (leak) or double Release (corruption) breaks the balance.
func TestPoolBalanceAfterDrain(t *testing.T) {
	const bodySize = 2 << 10
	s, p := reverseProxy(t, Config{Capacity: 16 * bodySize, MaxObjectBytes: bodySize, Shards: 2},
		patternOrigin{size: bodySize})

	for i := 0; i < 64; i++ {
		path := fmt.Sprintf("/obj%d.gif", i%24) // repeats: hits and refetches
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rr.Code)
		}
	}
	// One oversize response: streamed through uncached, its pooled prefix
	// buffer released by the miss leader.
	big, bigPool := reverseProxy(t, Config{Capacity: 16 * bodySize, MaxObjectBytes: bodySize / 2},
		patternOrigin{size: bodySize})
	rr := httptest.NewRecorder()
	big.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/huge.gif", nil))
	if rr.Code != http.StatusOK || rr.Body.Len() != bodySize {
		t.Fatalf("oversize: status %d, %d bytes", rr.Code, rr.Body.Len())
	}
	if got := bigPool.Stats().Outstanding(); got != 0 {
		t.Fatalf("oversize leader leaked %d buffers", got)
	}

	// The resident keys are among the requested ones: Peek each, remove
	// the resident, and the store must then be empty.
	for i := 0; i < 24; i++ {
		k := fmt.Sprintf("http://origin.example/obj%d.gif", i)
		if _, ok := s.store.Peek(k); ok && !s.store.Remove(k) {
			t.Fatalf("remove %q: not resident", k)
		}
	}
	if n := s.store.Len(); n != 0 {
		t.Fatalf("%d entries left after removing every requested key", n)
	}
	if got := p.Stats().Outstanding(); got != 0 {
		t.Fatalf("pool imbalance after drain: %d buffers outstanding (acquires=%d releases=%d)",
			got, p.Stats().Acquires, p.Stats().Releases)
	}
}
