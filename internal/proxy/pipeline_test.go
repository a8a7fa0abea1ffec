package proxy

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webcachesim/internal/admission"
	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/metrics"
	"webcachesim/internal/policy"
	"webcachesim/internal/pool"
	"webcachesim/internal/trace"
)

// syncBuffer is an access-log sink safe to read while handlers write.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// parse reads a registry's text exposition back as series → value.
func parse(t *testing.T, reg *metrics.Registry) map[string]float64 {
	t.Helper()
	m, err := metrics.ParseText(strings.NewReader(metricsText(t, reg)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// scrape is parse with the values as integers.
func scrape(t *testing.T, reg *metrics.Registry) map[string]int64 {
	t.Helper()
	m := parse(t, reg)
	out := make(map[string]int64, len(m))
	for series, v := range m {
		out[series] = int64(v)
	}
	return out
}

// readCounts reads a registry's scrape through ReadCounts.
func readCounts(t *testing.T, reg *metrics.Registry) (core.Counts, core.ClassCounts) {
	t.Helper()
	return ReadCounts(parse(t, reg))
}

// plus and minus are core.Counts arithmetic, field by field.
func plus(a, b core.Counts) core.Counts {
	return core.Counts{Requests: a.Requests + b.Requests, Hits: a.Hits + b.Hits, ReqBytes: a.ReqBytes + b.ReqBytes, HitBytes: a.HitBytes + b.HitBytes}
}

func minus(a, b core.Counts) core.Counts {
	return plus(a, core.Counts{Requests: -b.Requests, Hits: -b.Hits, ReqBytes: -b.ReqBytes, HitBytes: -b.HitBytes})
}

// served is one response as its client received it; complete reports
// that the body was the origin's, byte for byte.
type served struct {
	status   int
	header   http.Header
	bytes    int64
	complete bool
}

func recorded(rr *httptest.ResponseRecorder, path string) served {
	return served{rr.Code, rr.Header(), int64(rr.Body.Len()), rr.Body.String() == "origin-body-of-"+path}
}

// settleEnv is the server a TestEveryOutcomeSettlesOnce row measures,
// with its own registry, access log and (via reverseProxy or the fleet
// mutator) private buffer pool.
type settleEnv struct {
	srv *Server
	reg *metrics.Registry
	log *syncBuffer
}

func newSettleEnv(t *testing.T, cfg Config, rt http.RoundTripper) *settleEnv {
	env := &settleEnv{reg: metrics.NewRegistry(), log: &syncBuffer{}}
	cfg.Metrics, cfg.AccessLog = env.reg, env.log
	env.srv, _ = reverseProxy(t, cfg, rt)
	return env
}

func (env *settleEnv) get(path string) served {
	rr := httptest.NewRecorder()
	env.srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return recorded(rr, path)
}

// pair drives a leader and a coalesced waiter at path, whose origin
// response is held until both are on the flight.
func (env *settleEnv) pair(t *testing.T, origin *fakeOrigin, path string) []served {
	gate := make(chan struct{})
	origin.mu.Lock()
	origin.block[path] = gate
	origin.mu.Unlock()
	req := func() *http.Request { return httptest.NewRequest(http.MethodGet, path, nil) }
	lead, wait := coalescedPair(t, env.srv, func() bool { return origin.fetches(path) > 0 }, gate, req(), req())
	return []served{recorded(lead, path), recorded(wait, path)}
}

func (env *settleEnv) logLines(t *testing.T) []*trace.Request {
	t.Helper()
	if err := env.srv.flushLog(); err != nil {
		t.Fatal(err)
	}
	reqs, err := trace.ReadAll(trace.NewSquidReader(strings.NewReader(env.log.String())))
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestEveryOutcomeSettlesOnce drives every way a request can end through
// the pipeline and checks that each settles exactly once: the response
// headers name the outcome, the /metrics delta partitions (requests =
// hits + peer hits + misses) with exactly the expected sub-counter and
// store decision, the scrape read through ReadCounts moved by what the
// clients received, class by class, the access log gained one line per
// written response with the status and byte count its client received,
// and every pooled buffer not backing a resident object went back to the
// pool.
func TestEveryOutcomeSettlesOnce(t *testing.T) {
	const (
		small    = "/a.gif"                                  // 21-byte body
		other    = "/b.gif"                                  // 21-byte body
		big      = "/oversize-document-with-a-long-name.gif" // 54-byte body
		maxSmall = 32                                        // MaxObjectBytes between the two
		oneBody  = 21                                        // a Capacity that holds one small body
	)
	type counts struct {
		requests, hits, peerHits, misses, coalesced, stale int64
		// What became of the bodies the requests fetched: kept out by the
		// rules, the size bound or the client's credentials, or the
		// store's decisions.
		uncacheable, evictions, budgetRejects, admissionRejects, admitted int64
	}
	// contested is a one-shard TinyLFU proxy whose cache holds small, so
	// the next small body must displace it and the filter decides.
	contested := func(t *testing.T) *settleEnv {
		env := newSettleEnv(t, Config{Capacity: oneBody, Shards: 1, Admission: admission.MustSpec("tinylfu")}, newFakeOrigin())
		env.get(small)
		return env
	}
	for _, row := range []struct {
		name string
		// setup builds the server, brings it to the state the outcome
		// needs, and returns the requests to measure; the row's header
		// expectations apply to the last response they return.
		setup      func(t *testing.T) (*settleEnv, func() []served)
		status     int
		xcache     string
		xcoalesced string
		xadmission string
		delta      counts
	}{
		{
			name: "hit",
			setup: func(t *testing.T) (*settleEnv, func() []served) {
				env := newSettleEnv(t, Config{}, newFakeOrigin())
				env.get(small)
				return env, func() []served { return []served{env.get(small)} }
			},
			status: 200, xcache: "HIT", delta: counts{requests: 1, hits: 1},
		},
		{
			name: "miss",
			setup: func(t *testing.T) (*settleEnv, func() []served) {
				env := newSettleEnv(t, Config{}, newFakeOrigin())
				return env, func() []served { return []served{env.get(small)} }
			},
			status: 200, xcache: "MISS", delta: counts{requests: 1, misses: 1},
		},
		{
			name: "coalesced",
			setup: func(t *testing.T) (*settleEnv, func() []served) {
				origin := newFakeOrigin()
				env := newSettleEnv(t, Config{}, origin)
				return env, func() []served { return env.pair(t, origin, small) }
			},
			status: 200, xcache: "MISS", xcoalesced: "1", delta: counts{requests: 2, misses: 2, coalesced: 1},
		},
		{
			name: "stale-on-error",
			setup: func(t *testing.T) (*settleEnv, func() []served) {
				origin, clock := newFakeOrigin(), newFakeClock()
				origin.respHeader = http.Header{"Cache-Control": []string{"max-age=60"}}
				env := newSettleEnv(t, Config{Now: clock.Now, FetchRetries: -1}, origin)
				env.get(small)
				clock.Advance(61 * time.Second)
				origin.setFailing(true)
				return env, func() []served { return []served{env.get(small)} }
			},
			status: 200, xcache: "STALE", delta: counts{requests: 1, misses: 1, stale: 1},
		},
		{
			name: "peer hit",
			setup: func(t *testing.T) (*settleEnv, func() []served) {
				env := &settleEnv{reg: metrics.NewRegistry(), log: &syncBuffer{}}
				f := startFleet(t, newOrigin(t, nil), 2, func(i int, cfg *Config) {
					cfg.Buffers = pool.New()
					if i == 0 {
						cfg.Metrics, cfg.AccessLog = env.reg, env.log
					}
				})
				env.srv = f.servers[0]
				path := f.pathOwnedBy(t, "n1", ".gif")
				get(t, f.fronts[1].URL, path) // the owner now holds it
				return env, func() []served {
					resp, body := get(t, f.fronts[0].URL, path)
					return []served{{resp.StatusCode, resp.Header, int64(len(body)), body == "body-of-"+path}}
				}
			},
			status: 200, xcache: "PEER-HIT", delta: counts{requests: 1, peerHits: 1},
		},
		{
			name: "oversize leader",
			setup: func(t *testing.T) (*settleEnv, func() []served) {
				env := newSettleEnv(t, Config{MaxObjectBytes: maxSmall}, newFakeOrigin())
				return env, func() []served { return []served{env.get(big)} }
			},
			status: 200, xcache: "MISS", delta: counts{requests: 1, misses: 1, uncacheable: 1},
		},
		{
			name: "oversize waiter",
			setup: func(t *testing.T) (*settleEnv, func() []served) {
				origin := newFakeOrigin()
				env := newSettleEnv(t, Config{MaxObjectBytes: maxSmall}, origin)
				return env, func() []served { return env.pair(t, origin, big) }
			},
			// The waiter refetches the body the leader could not share.
			status: 200, xcache: "MISS", xcoalesced: "1", delta: counts{requests: 2, misses: 2, coalesced: 1, uncacheable: 2},
		},
		{
			name: "authorized",
			setup: func(t *testing.T) (*settleEnv, func() []served) {
				env := newSettleEnv(t, Config{}, newFakeOrigin())
				return env, func() []served {
					rr, r := httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, small, nil)
					r.Header.Set("Authorization", "Basic YWxpY2U6cHc=")
					env.srv.ServeHTTP(rr, r)
					return []served{recorded(rr, small)}
				}
			},
			status: 200, xcache: "MISS", delta: counts{requests: 1, misses: 1, uncacheable: 1},
		},
		{
			name: "upstream failure",
			setup: func(t *testing.T) (*settleEnv, func() []served) {
				origin := newFakeOrigin()
				origin.setFailing(true)
				env := newSettleEnv(t, Config{FetchRetries: -1}, origin)
				return env, func() []served { return []served{env.get(small)} }
			},
			status: 502, // no X-Cache: the one outcome that bypasses write and account
		},
		{
			// Under MaxObjectBytes, over the whole cache: the cacheability
			// rules refuse it before the store's budget is asked.
			name: "larger than the cache",
			setup: func(t *testing.T) (*settleEnv, func() []served) {
				env := newSettleEnv(t, Config{Capacity: oneBody - 1}, newFakeOrigin())
				return env, func() []served { return []served{env.get(small)} }
			},
			status: 200, xcache: "MISS", delta: counts{requests: 1, misses: 1, uncacheable: 1},
		},
		{
			// Room for the body, but the bytes are held by a resident no
			// shard will give up.
			name: "budget reject",
			setup: func(t *testing.T) (*settleEnv, func() []served) {
				lru := policy.MustFactory(policy.Spec{Scheme: "lru"})
				env := newSettleEnv(t, Config{Capacity: oneBody, Shards: 1, Policy: policy.Factory{Name: "pinning", New: func() policy.Policy {
					return pinning{lru.New()}
				}}}, newFakeOrigin())
				env.get(small)
				return env, func() []served { return []served{env.get(other)} }
			},
			status: 200, xcache: "MISS", delta: counts{requests: 1, misses: 1, budgetRejects: 1},
		},
		{
			name: "admission reject",
			setup: func(t *testing.T) (*settleEnv, func() []served) {
				env := contested(t)
				// other is as popular as the resident (seen once each): a tie
				// keeps the resident.
				return env, func() []served { return []served{env.get(other)} }
			},
			status: 200, xcache: "MISS", xadmission: "reject", delta: counts{requests: 1, misses: 1, admissionRejects: 1},
		},
		{
			name: "admission admit",
			setup: func(t *testing.T) (*settleEnv, func() []served) {
				env := contested(t)
				env.get(other) // rejected, but now seen once more than the resident
				return env, func() []served { return []served{env.get(other)} }
			},
			status: 200, xcache: "MISS", delta: counts{requests: 1, misses: 1, admitted: 1, evictions: 1},
		},
		{
			name: "eviction",
			setup: func(t *testing.T) (*settleEnv, func() []served) {
				env := newSettleEnv(t, Config{Capacity: oneBody, Shards: 1}, newFakeOrigin())
				env.get(small)
				return env, func() []served { return []served{env.get(other)} }
			},
			status: 200, xcache: "MISS", delta: counts{requests: 1, misses: 1, evictions: 1},
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			env, measure := row.setup(t)
			before, loggedBefore := scrape(t, env.reg), len(env.logLines(t))
			beforeAll, beforeByClass := readCounts(t, env.reg)
			responses := measure()

			last := responses[len(responses)-1]
			if last.status != row.status {
				t.Errorf("status = %d, want %d", last.status, row.status)
			}
			for name, want := range map[string]string{"X-Cache": row.xcache, "X-Coalesced": row.xcoalesced, "X-Admission": row.xadmission} {
				if got := last.header.Get(name); got != want {
					t.Errorf("%s = %q, want %q", name, got, want)
				}
			}
			var wantLog []string // "status bytes" per written response
			var wantAll core.Counts
			var wantByClass core.ClassCounts
			for _, r := range responses {
				if r.status == http.StatusOK && !r.complete {
					t.Errorf("client received a wrong or truncated body (%d bytes)", r.bytes)
				}
				xcache := r.header.Get("X-Cache")
				if xcache == "" {
					continue
				}
				wantLog = append(wantLog, strconv.Itoa(r.status)+" "+strconv.FormatInt(r.bytes, 10))
				c := core.Counts{Requests: 1, ReqBytes: r.bytes}
				if xcache == "HIT" {
					c.Hits, c.HitBytes = 1, r.bytes
				}
				wantAll = plus(wantAll, c)
				class := doctype.Classify(r.header.Get("Content-Type"), "")
				wantByClass[class] = plus(wantByClass[class], c)
			}

			after := scrape(t, env.reg)
			d := func(series string) int64 { return after[series] - before[series] }
			var uncacheable int64
			for _, reason := range []string{"rules", "oversize", "authorization"} {
				uncacheable += d(`wcproxy_uncacheable_total{reason="` + reason + `"}`)
			}
			got := counts{
				requests:  d("wcproxy_requests_total"),
				hits:      d("wcproxy_hits_total"),
				peerHits:  d("wcproxy_peer_hits_total"),
				misses:    d("wcproxy_misses_total"),
				coalesced: d("wcproxy_coalesced_total"),
				stale:     d("wcproxy_stale_served_total"),

				uncacheable:      uncacheable,
				evictions:        d("wcproxy_evictions_total"),
				budgetRejects:    d("wcproxy_cache_rejects_total"),
				admissionRejects: d("wcproxy_admission_rejected_total"),
				admitted:         d("wcproxy_admission_admitted_total"),
			}
			if got != row.delta {
				t.Errorf("counter delta = %+v, want %+v", got, row.delta)
			}
			if got.requests != got.hits+got.peerHits+got.misses {
				t.Errorf("requests %d != hits %d + peer hits %d + misses %d", got.requests, got.hits, got.peerHits, got.misses)
			}

			// The paper's counts, read off the scrape, moved by exactly what
			// the clients received.
			afterAll, afterByClass := readCounts(t, env.reg)
			if got := minus(afterAll, beforeAll); got != wantAll {
				t.Errorf("ReadCounts delta = %+v, clients received %+v", got, wantAll)
			}
			for c := range afterByClass {
				if got := minus(afterByClass[c], beforeByClass[c]); got != wantByClass[c] {
					t.Errorf("ReadCounts class %s delta = %+v, clients received %+v", doctype.Class(c).Short(), got, wantByClass[c])
				}
			}

			// One access-log line per written response, carrying the status
			// and byte count that client received.
			var gotLog []string
			for _, l := range env.logLines(t)[loggedBefore:] {
				gotLog = append(gotLog, strconv.Itoa(l.Status)+" "+strconv.FormatInt(l.TransferSize, 10))
			}
			sort.Strings(gotLog)
			sort.Strings(wantLog)
			if strings.Join(gotLog, ",") != strings.Join(wantLog, ",") {
				t.Errorf("access log gained %q, want %q", gotLog, wantLog)
			}

			// Over a socket the client can finish reading before the handler
			// drops its last reference, so allow the gauge a moment.
			var outstanding, resident int64
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
				m := scrape(t, env.reg)
				outstanding, resident = m["wcproxy_pool_buffers_outstanding"], m["wcproxy_cache_objects"]
				if outstanding == resident || time.Now().After(deadline) {
					break
				}
			}
			if outstanding != resident {
				t.Errorf("%d pooled buffers outstanding with %d resident objects", outstanding, resident)
			}
		})
	}
}

// pinning is a replacement policy that never gives up a victim, so what
// it holds are bytes no shard can free — the state concurrent reservations
// leave the budget in, without the race.
type pinning struct{ policy.Policy }

func (pinning) Evict() (*policy.Doc, bool) { return nil, false }

// downable is an origin-bound transport a test can switch off.
type downable struct{ down atomic.Bool }

func (d *downable) RoundTrip(r *http.Request) (*http.Response, error) {
	if d.down.Load() {
		return nil, errors.New("origin unreachable")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestClassBytesSumToTotals pins the per-class byte counters to the
// totals they break down — the paper's per-type byte hit rate is
// class_hit_bytes / class_request_bytes on a scrape, so a response
// counted in one ledger and not the other would skew it silently. One
// fleet node answers every way a body can be delivered (miss, hit, peer
// hit, streamed oversize, stale) across three document classes.
func TestClassBytesSumToTotals(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "max-age=60")
		switch {
		case strings.HasSuffix(r.URL.Path, ".gif"):
			w.Header().Set("Content-Type", "image/gif")
		case strings.HasSuffix(r.URL.Path, ".html"):
			w.Header().Set("Content-Type", "text/html")
		case strings.HasSuffix(r.URL.Path, ".mp3"):
			w.Header().Set("Content-Type", "audio/mpeg")
		}
		_, _ = io.WriteString(w, "body-of-"+r.URL.Path)
	}))
	t.Cleanup(origin.Close)
	reg, clock, transport := metrics.NewRegistry(), newFakeClock(), &downable{}
	f := startFleet(t, origin, 2, func(i int, cfg *Config) {
		cfg.Buffers = pool.New()
		if i == 0 {
			cfg.Metrics, cfg.Now, cfg.Transport = reg, clock.Now, transport
			cfg.MaxObjectBytes, cfg.FetchRetries = 40, -1
		}
	})
	image, page := f.pathOwnedBy(t, "n0", ".gif"), f.pathOwnedBy(t, "n0", ".html")
	song := f.pathOwnedBy(t, "n0", "-with-a-name-that-makes-its-body-oversize.mp3")
	theirs := f.pathOwnedBy(t, "n1", ".gif")
	get(t, f.fronts[1].URL, theirs) // its owner now holds it

	for _, step := range []struct{ path, xcache string }{
		{image, "MISS"}, {image, "HIT"}, {page, "MISS"}, {page, "HIT"}, {page, "HIT"},
		{theirs, "PEER-HIT"}, {song, "MISS"}, {song, "MISS"},
	} {
		resp, body := get(t, f.fronts[0].URL, step.path)
		if got := resp.Header.Get("X-Cache"); got != step.xcache || body != "body-of-"+step.path {
			t.Fatalf("%s: X-Cache %q body %q, want %s and the origin's body", step.path, got, body, step.xcache)
		}
	}
	clock.Advance(61 * time.Second)
	transport.down.Store(true)
	if resp, _ := get(t, f.fronts[0].URL, image); resp.Header.Get("X-Cache") != "STALE" {
		t.Fatalf("expired entry with the origin down: X-Cache %q, want STALE", resp.Header.Get("X-Cache"))
	}

	m := scrape(t, reg)
	if m[`wcproxy_uncacheable_total{reason="oversize"}`] != 2 || m["wcproxy_peer_hits_total"] != 1 || m["wcproxy_stale_served_total"] != 1 {
		t.Fatalf("the traffic did not take the paths it was built for:\n%s", metricsText(t, reg))
	}
	for _, total := range []string{"request_bytes", "hit_bytes"} {
		var sum int64
		classes := 0
		for c := doctype.Class(0); c <= doctype.NumClasses; c++ {
			v := m["wcproxy_class_"+total+`_total{class="`+c.Short()+`"}`]
			sum += v
			if v > 0 {
				classes++
			}
		}
		if want := m["wcproxy_"+total+"_total"]; sum != want || want == 0 {
			t.Errorf("wcproxy_class_%s_total sums to %d over classes, wcproxy_%s_total is %d", total, sum, total, want)
		}
		if want := map[string]int{"request_bytes": 3, "hit_bytes": 2}[total]; classes != want {
			t.Errorf("wcproxy_class_%s_total is non-zero for %d classes, want %d", total, classes, want)
		}
	}
	if got, want := m[`wcproxy_class_hit_bytes_total{class="html"}`], int64(2*len("body-of-"+page)); got != want {
		t.Errorf("html hit bytes = %d, want two hits of %d bytes", got, want/2)
	}
}

// FuzzRequestKey is the differential check of the key stage: whichever
// form it takes for a request — prefix+path, or the general
// targetURL(r).String() — the key bytes must equal the general form, for
// every request URI net/http would hand the proxy and every origin shape.
// (The startup probe checks one path against the configured origin, not
// the input space.)
func FuzzRequestKey(f *testing.F) {
	var servers []*Server
	for _, origin := range []string{
		"http://origin.example",             // plain
		"http://origin.example/base/dir",    // path prefix
		"http://user:pw@origin.example",     // userinfo
		"http://origin.example/esc%2Faped",  // a RawPath of its own
		"http://origin.example:8080/?force", // query on the origin
	} {
		u, err := url.Parse(origin)
		if err != nil {
			f.Fatal(err)
		}
		s, err := New(Config{Capacity: 1 << 10, Origin: u, Buffers: pool.New()})
		if err != nil {
			f.Fatal(err)
		}
		servers = append(servers, s)
	}
	for _, uri := range []string{
		"/steady.gif", "/a%20b.gif", "/a b.gif", "/a.gif?x=1&y=2", "/", "//double", "/a?", "/a?b?c",
		"/esc/aped", "/esc%2Faped", "/café", "/~user/$&+,:;=@", "*", "http://other.example/abs?q",
	} {
		for i := range servers {
			f.Add(uri, uint8(i))
		}
	}
	f.Fuzz(func(t *testing.T, uri string, which uint8) {
		u, err := url.ParseRequestURI(uri)
		if err != nil {
			t.Skip()
		}
		s := servers[int(which)%len(servers)]
		r := &http.Request{Method: http.MethodGet, URL: u, Host: "origin.example", Header: http.Header{}, Body: io.NopCloser(strings.NewReader(""))}
		target, err := s.targetURL(r)
		if err != nil {
			t.Fatalf("reverse-mode targetURL failed: %v", err)
		}
		k, err := s.requestKey(r)
		if err != nil {
			t.Fatalf("requestKey failed where targetURL did not: %v", err)
		}
		defer k.scratch.Release()
		if want := target.String(); string(k.bytes) != want || k.String() != want {
			t.Errorf("origin %s, request %q: key %q, general form %q", s.cfg.Origin, uri, k.bytes, want)
		}
	})
}
