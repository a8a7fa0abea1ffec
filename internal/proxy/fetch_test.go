package proxy

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"webcachesim/internal/cache"
	"webcachesim/internal/metrics"
	"webcachesim/internal/policy"
)

// fakeClock is an injectable, advanceable time source for expiry tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func metricsText(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// countingPolicy counts Hit calls on the policy it wraps.
type countingPolicy struct {
	policy.Policy
	hits *atomic.Int64
}

func (c countingPolicy) Hit(d *policy.Doc) {
	c.hits.Add(1)
	c.Policy.Hit(d)
}

// countingAdmitter admits everything and counts Touch calls.
type countingAdmitter struct{ touches *atomic.Int64 }

func (a countingAdmitter) Touch(*policy.Doc)            { a.touches.Add(1) }
func (countingAdmitter) Admit(_, _ *policy.Doc) bool    { return true }
func (countingAdmitter) Inserted(*policy.Doc)           {}
func (countingAdmitter) Evicted(*policy.Doc)            {}
func (countingAdmitter) Counts() policy.AdmissionCounts { return policy.AdmissionCounts{} }

// TestStaleOnError walks the full stale-on-error lifecycle: a response
// cached under max-age goes stale, the origin dies, and the proxy serves
// the expired copy (X-Cache: STALE) instead of failing; once the origin
// recovers, a refetch makes the entry fresh again. The URL is
// fast-keyable (reverse mode), and the stale revalidation must reach the
// replacement policy and the admission filter exactly once: the request
// has one lookup, whatever happens after it.
func TestStaleOnError(t *testing.T) {
	origin := newFakeOrigin()
	origin.respHeader = http.Header{"Cache-Control": []string{"max-age=60"}}
	clock := newFakeClock()
	reg := metrics.NewRegistry()
	var policyHits, admissionTouches atomic.Int64
	lru := policy.MustFactory(policy.Spec{Scheme: "lru"})
	p, _ := reverseProxy(t, Config{
		Now:     clock.Now,
		Metrics: reg,
		Policy: policy.Factory{Name: "counting-lru", New: func() policy.Policy {
			return countingPolicy{lru.New(), &policyHits}
		}},
		Admission: policy.AdmitterFactory{Name: "counting", New: func(int64) policy.Admitter {
			return countingAdmitter{&admissionTouches}
		}},
	}, origin)
	get := func() *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		p.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/a.gif", nil))
		return rr
	}

	if rr := get(); rr.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("initial: X-Cache = %q, want MISS", rr.Header().Get("X-Cache"))
	}
	clock.Advance(30 * time.Second) // still within max-age
	if rr := get(); rr.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("fresh: X-Cache = %q, want HIT", rr.Header().Get("X-Cache"))
	}

	clock.Advance(31 * time.Second) // past max-age
	origin.setFailing(true)
	hitsBefore, touchesBefore := policyHits.Load(), admissionTouches.Load()
	rr := get()
	if rr.Code != http.StatusOK {
		t.Fatalf("stale: status = %d, want 200", rr.Code)
	}
	if rr.Header().Get("X-Cache") != "STALE" {
		t.Fatalf("stale: X-Cache = %q, want STALE", rr.Header().Get("X-Cache"))
	}
	if want := "origin-body-of-/a.gif"; rr.Body.String() != want {
		t.Fatalf("stale body = %q, want %q", rr.Body.String(), want)
	}
	if got := policyHits.Load() - hitsBefore; got != 1 {
		t.Errorf("stale revalidation registered %d policy hits, want 1", got)
	}
	if got := admissionTouches.Load() - touchesBefore; got != 1 {
		t.Errorf("stale revalidation registered %d admission touches, want 1", got)
	}
	if out := metricsText(t, reg); !strings.Contains(out, "wcproxy_stale_served_total 1") {
		t.Errorf("exposition missing stale counter:\n%s", out)
	}

	origin.setFailing(false)
	if rr := get(); rr.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("recover: X-Cache = %q, want MISS (revalidating refetch)", rr.Header().Get("X-Cache"))
	}
	if rr := get(); rr.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("refreshed: X-Cache = %q, want HIT", rr.Header().Get("X-Cache"))
	}
}

// contentOrigin answers like a static-file origin — http.ServeContent
// honours Range and the conditional request headers — and records the
// headers of every request it was sent. gate, when set, holds each
// response until it is closed.
type contentOrigin struct {
	body []byte
	gate chan struct{}

	mu   sync.Mutex
	seen []http.Header
}

var contentOriginModTime = time.Unix(1_600_000_000, 0).UTC()

func (o *contentOrigin) RoundTrip(req *http.Request) (*http.Response, error) {
	o.mu.Lock()
	o.seen = append(o.seen, req.Header.Clone())
	o.mu.Unlock()
	if o.gate != nil {
		select {
		case <-o.gate:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	rec := httptest.NewRecorder()
	rec.Header().Set("Content-Type", "image/gif")
	rec.Header().Set("ETag", `"v1"`)
	http.ServeContent(rec, req, "", contentOriginModTime, bytes.NewReader(o.body))
	return rec.Result(), nil
}

// coalescedPair sends leader, waits until its fetch is at the gated
// origin (atOrigin reports true), sends waiter so that it joins the
// leader's flight, then opens the gate. It returns both responses; the
// caller asserts, from the waiter's X-Coalesced header, that the join
// happened.
func coalescedPair(t *testing.T, p *Server, atOrigin func() bool, gate chan struct{}, leader, waiter *http.Request) (lead, wait *httptest.ResponseRecorder) {
	t.Helper()
	lead, wait = httptest.NewRecorder(), httptest.NewRecorder()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.ServeHTTP(lead, leader) }()
	for deadline := time.Now().Add(5 * time.Second); !atOrigin(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("leader fetch never reached the origin")
		}
	}
	go func() { defer wg.Done(); p.ServeHTTP(wait, waiter) }()
	// The waiter has nowhere to go but the leader's flight; the flight
	// group exposes no join event, so give it a moment to park there.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	return lead, wait
}

// TestUpstreamRequestIsUnconditional pins that a shared upstream fetch is
// whole and unconditional whatever the client sent: its result is stored
// under the full-document key and handed to every coalesced waiter. With
// the client's Range or validators forwarded, the origin's 206 (10 bytes)
// or empty 304 was cached and then served to plain clients as a HIT.
func TestUpstreamRequestIsUnconditional(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 100)
	plain := func() *http.Request { return httptest.NewRequest(http.MethodGet, "/doc.gif", nil) }
	with := func(name, value string) *http.Request {
		r := plain()
		r.Header.Set(name, value)
		return r
	}
	check := func(t *testing.T, what string, rr *httptest.ResponseRecorder, xcache string) {
		t.Helper()
		if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), body) {
			t.Errorf("%s: status %d with %d bytes, want 200 with all %d", what, rr.Code, rr.Body.Len(), len(body))
		}
		if got := rr.Header().Get("X-Cache"); got != xcache {
			t.Errorf("%s: X-Cache = %q, want %q", what, got, xcache)
		}
	}
	for _, tc := range []struct {
		name      string
		first     *http.Request
		coalesced *http.Request // when set, joins first's fetch as a waiter
	}{
		{name: "Range", first: with("Range", "bytes=0-9")},
		{name: "If-Modified-Since", first: with("If-Modified-Since", contentOriginModTime.Format(http.TimeFormat))},
		{name: "If-None-Match", first: with("If-None-Match", `"v1"`)},
		{name: "coalesced waiter with Range", first: plain(), coalesced: with("Range", "bytes=0-9")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			origin := &contentOrigin{body: body}
			if tc.coalesced != nil {
				origin.gate = make(chan struct{})
			}
			p, _ := reverseProxy(t, Config{}, origin)
			if tc.coalesced == nil {
				rr := httptest.NewRecorder()
				p.ServeHTTP(rr, tc.first)
				check(t, "first", rr, "MISS")
			} else {
				atOrigin := func() bool {
					origin.mu.Lock()
					defer origin.mu.Unlock()
					return len(origin.seen) > 0
				}
				lead, wait := coalescedPair(t, p, atOrigin, origin.gate, tc.first, tc.coalesced)
				check(t, "leader", lead, "MISS")
				check(t, "waiter", wait, "MISS")
				if wait.Header().Get("X-Coalesced") != "1" {
					t.Fatal("waiter did not coalesce onto the leader's fetch")
				}
			}
			rr := httptest.NewRecorder()
			p.ServeHTTP(rr, plain())
			check(t, "second, plain", rr, "HIT")

			origin.mu.Lock()
			defer origin.mu.Unlock()
			if len(origin.seen) != 1 {
				t.Errorf("origin saw %d requests, want 1", len(origin.seen))
			}
			for _, h := range origin.seen {
				for _, name := range perClientHeaders {
					if v := h.Get(name); v != "" {
						t.Errorf("origin was sent %s: %s", name, v)
					}
				}
			}
		})
	}
}

// gzipOrigin answers like a compressing web server: gzip to a request
// that accepts it, identity bytes otherwise.
func gzipOrigin(t *testing.T, body []byte) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			_, _ = w.Write(body)
			return
		}
		w.Header().Set("Content-Encoding", "gzip")
		zw := gzip.NewWriter(w)
		_, _ = zw.Write(body)
		_ = zw.Close()
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestUpstreamBodyIsIdentity pins that what the proxy stores and serves,
// with no Content-Encoding, is the identity body whatever a client
// accepts. With the client's Accept-Encoding forwarded, net/http's
// transport neither asked for gzip itself nor decoded the reply: one
// client accepting gzip got the gzip stream stored and served as a HIT to
// a client that asked for nothing, and in a fleet the peer hop's own
// "Accept-Encoding: gzip" reached the origin from the owner.
func TestUpstreamBodyIsIdentity(t *testing.T) {
	body := bytes.Repeat([]byte("<p>identity bytes</p>\n"), 110)
	tr := &http.Transport{DisableCompression: true} // asks for nothing it is not told to, decodes nothing
	t.Cleanup(tr.CloseIdleConnections)
	fetch := func(t *testing.T, url string, acceptGzip bool) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if acceptGzip {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		resp, err := (&http.Client{Transport: tr}).Do(req)
		if err != nil {
			t.Fatal(err)
		}
		xcache, enc := resp.Header.Get("X-Cache"), resp.Header.Get("Content-Encoding")
		if got := drainString(t, resp); got != string(body) || enc != "" {
			t.Errorf("%s (X-Cache %s, gzip accepted %v): %d bytes with Content-Encoding %q, want the %d identity bytes",
				url, xcache, acceptGzip, len(got), enc, len(body))
		}
	}
	t.Run("single node", func(t *testing.T) {
		_, front := newProxy(t, gzipOrigin(t, body), Config{})
		fetch(t, front.URL+"/page.html", true)
		fetch(t, front.URL+"/page.html", false)
	})
	t.Run("fleet", func(t *testing.T) {
		f := startFleet(t, gzipOrigin(t, body), 2, nil)
		for i := 0; i < 40; i++ {
			fetch(t, f.fronts[i%2].URL+fmt.Sprintf("/doc/%d.html", i/2), false)
		}
	})
}

// TestStaleMissWithoutCachedCopy pins the negative case: with nothing
// cached and the origin down, the proxy has no fallback and must 502.
func TestStaleMissWithoutCachedCopy(t *testing.T) {
	origin := newFakeOrigin()
	origin.setFailing(true)
	p, err := New(Config{Capacity: 1 << 20, Transport: origin})
	if err != nil {
		t.Fatal(err)
	}
	p.sleep = func(time.Duration) {}
	rr := httptest.NewRecorder()
	p.ServeHTTP(rr, absReq("/never-seen.gif"))
	if rr.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", rr.Code)
	}
}

// TestFetchRetrySucceedsAfterFailures pins the retry loop: with the first
// two attempts failing, the third succeeds; the client sees a plain miss,
// and the two backoff sleeps fall inside the jitter envelope
// [0.5, 1.5) × (retryBackoff << attempt-1).
func TestFetchRetrySucceedsAfterFailures(t *testing.T) {
	origin := newFakeOrigin()
	origin.failFirst = 2
	reg := metrics.NewRegistry()
	p, err := New(Config{Capacity: 1 << 20, Transport: origin, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	p.sleep = func(d time.Duration) { slept = append(slept, d) }

	rr := httptest.NewRecorder()
	p.ServeHTTP(rr, absReq("/r.gif"))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
	if rr.Header().Get("X-Cache") != "MISS" {
		t.Errorf("X-Cache = %q, want MISS", rr.Header().Get("X-Cache"))
	}
	if got := origin.fetches("/r.gif"); got != 3 {
		t.Errorf("origin saw %d attempts, want 3", got)
	}
	if len(slept) != 2 {
		t.Fatalf("recorded %d backoff sleeps, want 2: %v", len(slept), slept)
	}
	for i, d := range slept {
		lo := time.Duration(float64(retryBackoff<<i) * 0.5)
		hi := time.Duration(float64(retryBackoff<<i) * 1.5)
		if d < lo || d >= hi {
			t.Errorf("backoff %d = %v, want in [%v, %v)", i+1, d, lo, hi)
		}
	}
	out := metricsText(t, reg)
	for _, want := range []string{
		"wcproxy_origin_retries_total 2",
		"wcproxy_origin_errors_total 2",
		"wcproxy_hits_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestFetchRetriesExhausted pins the give-up path: every attempt fails,
// the budget (1 + fetchRetries) is spent exactly, and the client gets a
// 502.
func TestFetchRetriesExhausted(t *testing.T) {
	origin := newFakeOrigin()
	origin.setFailing(true)
	reg := metrics.NewRegistry()
	p, err := New(Config{Capacity: 1 << 20, Transport: origin, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	p.sleep = func(time.Duration) {}

	rr := httptest.NewRecorder()
	p.ServeHTTP(rr, absReq("/gone.gif"))
	if rr.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", rr.Code)
	}
	if got := origin.fetches("/gone.gif"); got != 3 {
		t.Errorf("origin saw %d attempts, want 3 (1 + 2 retries)", got)
	}
	out := metricsText(t, reg)
	for _, want := range []string{
		"wcproxy_origin_errors_total 3",
		"wcproxy_origin_retries_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestFetchTimeout pins the per-attempt deadline: an origin that never
// answers is cut off by FetchTimeout rather than hanging the request.
func TestFetchTimeout(t *testing.T) {
	origin := newFakeOrigin()
	origin.mu.Lock()
	origin.block["/hang.gif"] = make(chan struct{}) // never closed
	origin.mu.Unlock()
	p, err := New(Config{
		Capacity:     1 << 20,
		Transport:    origin,
		FetchTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.sleep = func(time.Duration) {}
	start := time.Now()
	rr := httptest.NewRecorder()
	p.ServeHTTP(rr, absReq("/hang.gif"))
	if rr.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", rr.Code)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("request took %v; timeout did not bound the fetch", waited)
	}
}

// TestBackoffBounds checks the jitter envelope arithmetic directly.
func TestBackoffBounds(t *testing.T) {
	for attempt := 1; attempt <= fetchRetries; attempt++ {
		for i := 0; i < 100; i++ {
			d := backoff(attempt)
			lo := time.Duration(float64(retryBackoff<<(attempt-1)) * 0.5)
			hi := time.Duration(float64(retryBackoff<<(attempt-1)) * 1.5)
			if d < lo || d >= hi {
				t.Fatalf("backoff(%d) = %v, want in [%v, %v)", attempt, d, lo, hi)
			}
		}
	}
}

// TestExpiry covers the freshness-deadline derivation from response
// headers.
func TestExpiry(t *testing.T) {
	now := time.Unix(1_700_000_000, 0).UTC()
	httpDate := now.Add(90 * time.Second).Format(http.TimeFormat)
	cases := []struct {
		name string
		hdr  http.Header
		want time.Time
	}{
		{"no headers", http.Header{}, time.Time{}},
		{"max-age", http.Header{"Cache-Control": {"max-age=60"}}, now.Add(60 * time.Second)},
		{"s-maxage wins", http.Header{"Cache-Control": {"max-age=60, s-maxage=30"}}, now.Add(30 * time.Second)},
		{"with other directives", http.Header{"Cache-Control": {"public, max-age=120"}}, now.Add(120 * time.Second)},
		{"case-insensitive", http.Header{"Cache-Control": {"Max-Age=10"}}, now.Add(10 * time.Second)},
		{"negative rejected", http.Header{"Cache-Control": {"max-age=-5"}}, time.Time{}},
		{"garbage rejected", http.Header{"Cache-Control": {"max-age=soon"}}, time.Time{}},
		{"expires header", http.Header{"Expires": {httpDate}}, now.Add(90 * time.Second)},
		{"max-age beats expires", http.Header{"Cache-Control": {"max-age=60"}, "Expires": {httpDate}}, now.Add(60 * time.Second)},
		// RFC 9111 §5.3: an invalid date, "0" above all, is already expired.
		{"bad expires", http.Header{"Expires": {"not a date"}}, now},
		{"expires 0", http.Header{"Expires": {"0"}}, now},
		// RFC 9111 §1.2.2: delta-seconds clamp at 2³¹ rather than overflow
		// time.Duration into an entry born stale.
		{"max-age past Duration", http.Header{"Cache-Control": {"max-age=10000000000"}}, now.Add(maxDeltaSeconds * time.Second)},
		{"s-maxage max int64", http.Header{"Cache-Control": {"s-maxage=9223372036854775807"}}, now.Add(maxDeltaSeconds * time.Second)},
		{"max-age past int64", http.Header{"Cache-Control": {"max-age=99999999999999999999"}}, now.Add(maxDeltaSeconds * time.Second)},
		// RFC 9111 §5.2: delta-seconds may arrive quoted.
		{"quoted max-age", http.Header{"Cache-Control": {`max-age="60"`}}, now.Add(60 * time.Second)},
		{"quoted s-maxage wins", http.Header{"Cache-Control": {`max-age=60, s-maxage="30"`}}, now.Add(30 * time.Second)},
		{"one quote rejected", http.Header{"Cache-Control": {`max-age="60`}}, time.Time{}},
		{"two quote pairs rejected", http.Header{"Cache-Control": {`max-age=""60""`}}, time.Time{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := expiry(tc.hdr, now)
			if !got.Equal(tc.want) {
				t.Errorf("expiry(%v) = %v, want %v", tc.hdr, got, tc.want)
			}
		})
	}
}

// FuzzExpiry holds the header readers to what a cache may not get wrong
// on any input: expiry never panics, and a digits-only max-age/s-maxage —
// however many digits — never dates an entry before its arrival, and
// dates it the same quoted as bare;
// containsToken never panics and finds tok, in any ASCII case, as one
// comma-separated element whatever surrounds it.
func FuzzExpiry(f *testing.F) {
	for _, seed := range []struct{ cc, expires, digits, tok string }{
		{"max-age=60", "", "60", "no-store"},
		{"s-maxage=9223372036854775807", "0", "10000000000", "private"},
		{"max-age=-5, s-maxage=x", "Thu, 01 Jan 1970 00:00:00 GMT", "99999999999999999999", "No-Store"},
		{"public,,  private ,", "not a date", "0", "public"},
		{"", "", "", ""},
	} {
		f.Add(seed.cc, seed.expires, seed.digits, seed.tok, false)
		f.Add(seed.cc, seed.expires, seed.digits, seed.tok, true)
	}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, cc, expires, digits, tok string, shared bool) {
		expiry(http.Header{"Cache-Control": {cc}, "Expires": {expires}}, now)
		containsToken(cc, tok)

		if digits != "" && strings.Trim(digits, "0123456789") == "" {
			directive := "max-age"
			if shared {
				directive = "s-maxage"
			}
			h := http.Header{"Cache-Control": {directive + "=" + digits + ", " + cc}, "Expires": {expires}}
			got := expiry(h, now)
			if got.Before(now) {
				t.Errorf("expiry(%q) = %v, before its arrival at %v", h, got, now)
			}
			quoted := http.Header{"Cache-Control": {directive + `="` + digits + `", ` + cc}, "Expires": {expires}}
			if q := expiry(quoted, now); !q.Equal(got) {
				t.Errorf("expiry(%q) = %v, but unquoted %v", quoted, q, got)
			}
		}
		if tok == "" || strings.Contains(tok, ",") || strings.TrimSpace(tok) != tok {
			return // not a single element
		}
		flipped := []byte(tok)
		for i, c := range flipped {
			if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' {
				flipped[i] = c ^ 0x20
			}
		}
		if header := cc + ", " + string(flipped) + "\t," + cc; !containsToken(header, tok) {
			t.Errorf("containsToken(%q, %q) = false", header, tok)
		}
	})
}

// TestFresh pins the zero-Expires contract: entries without expiry
// metadata never go stale.
func TestFresh(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	if !fresh(&cache.Entry{}, now) {
		t.Error("zero Expires must never be stale")
	}
	if !fresh(&cache.Entry{Expires: now.Add(time.Second)}, now) {
		t.Error("future Expires must be fresh")
	}
	if fresh(&cache.Entry{Expires: now.Add(-time.Second)}, now) {
		t.Error("past Expires must be stale")
	}
}

// truncatingOrigin declares a body of declared bytes and fails the read
// after sent of them, as an origin connection dropped mid-transfer does.
type truncatingOrigin struct{ declared, sent int }

func (o truncatingOrigin) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"image/gif"}},
		Body:          io.NopCloser(io.MultiReader(bytes.NewReader(make([]byte, o.sent)), iotest.ErrReader(errors.New("connection reset")))),
		ContentLength: int64(o.declared),
	}, nil
}

// TestOriginBodyFailsMidRead pins the buffered fetch's failure path: a
// body that errors part-way is a failed fetch, not a short document. The
// client gets a 502, nothing is cached, and the pooled buffer the body
// was read into goes back to the pool.
func TestOriginBodyFailsMidRead(t *testing.T) {
	s, bufs := reverseProxy(t, Config{}, truncatingOrigin{declared: 10_000, sent: 1_000})
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/cut.gif", nil))
	if rr.Code != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", rr.Code)
	}
	if s.Len() != 0 || s.Used() != 0 {
		t.Errorf("cached %d objects (%d B) from a failed body read, want none", s.Len(), s.Used())
	}
	if n := bufs.Stats().Outstanding(); n != 0 {
		t.Errorf("%d pooled buffers outstanding after a failed body read, want 0", n)
	}
}
