package proxy_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webcachesim/internal/metrics"
	"webcachesim/internal/pool"
	"webcachesim/internal/proxy"
	"webcachesim/internal/trace"
)

// oversizePayload builds a deterministic body of n bytes whose content
// makes truncation and corruption distinguishable (repeating counter, not
// a constant fill).
func oversizePayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}

// TestOversizeBodyStreamedComplete is the regression test for the
// truncated-body bug: the proxy used to read origin bodies through
// io.LimitReader(MaxObjectBytes+1) and serve that slice verbatim, so any
// response over the limit reached the client cut short. The request runs
// over a real socket (httptest server in front of the proxy), the origin
// serves MaxObjectBytes+4096 bytes, and the client must receive every
// byte while the cache stores nothing.
func TestOversizeBodyStreamedComplete(t *testing.T) {
	const maxObj = 64 << 10
	payload := oversizePayload(maxObj + 4096)

	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(payload)
	}))
	t.Cleanup(origin.Close)
	u, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	srv, err := proxy.New(proxy.Config{
		Capacity:       1 << 20,
		MaxObjectBytes: maxObj,
		Origin:         u,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	t.Cleanup(front.Close)

	for round := 1; round <= 2; round++ {
		resp, err := http.Get(front.URL + "/big.bin")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatalf("round %d: read body: %v", round, err)
		}
		if len(got) != len(payload) {
			t.Fatalf("round %d: client received %d bytes, want %d (truncated body served)",
				round, len(got), len(payload))
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round %d: body corrupted in transit", round)
		}
		if xc := resp.Header.Get("X-Cache"); xc != "MISS" {
			t.Fatalf("round %d: X-Cache = %q, want MISS (oversize must never be a hit)", round, xc)
		}
	}

	if n := srv.Len(); n != 0 {
		t.Fatalf("cache holds %d objects, want 0 (oversize bodies must not be stored)", n)
	}
	if out := exposition(t, reg); !strings.Contains(out, `wcproxy_uncacheable_total{reason="oversize"} 2`) {
		t.Errorf("exposition missing oversize count:\n%s", out)
	}
	st, _ := readCounts(t, reg)
	if st.Hits != 0 || st.Requests != 2 {
		t.Errorf("counts = %d requests / %d hits, want 2 / 0", st.Requests, st.Hits)
	}
	if want := int64(2 * len(payload)); st.ReqBytes != want {
		t.Errorf("request bytes = %d, want %d (full streamed size)", st.ReqBytes, want)
	}
}

// lockedBuffer is an access-log sink the test can read while handlers may
// still be writing.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// firstOnly passes the first round trip through and fails every later one
// when failRest is set — the waiter's own refetch, since the leader's
// fetch is the first.
type firstOnly struct {
	failRest bool
	calls    atomic.Int32
}

func (f *firstOnly) RoundTrip(r *http.Request) (*http.Response, error) {
	if f.calls.Add(1) > 1 && f.failRest {
		return nil, errors.New("origin unreachable")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestOversizeConcurrentClientsAllComplete drives two concurrent clients
// at the same oversize URL. Whichever of them coalesces onto the other's
// origin fetch cannot share the leader's body stream, so it must refetch
// for itself. When the refetch works both clients receive the complete
// body; when it fails the waiter receives a 502 — and the access log must
// record each client's own status, not the leader's for both. Both
// answers are labelled X-Cache: MISS, the 502 too, since the proxy counts
// it as a miss: a load client tallies what the proxy counts.
func TestOversizeConcurrentClientsAllComplete(t *testing.T) {
	const maxObj = 32 << 10
	payload := oversizePayload(maxObj + 4096)

	for _, tt := range []struct {
		name         string
		refetchFails bool
		wantStatuses []int // sorted, as logged and as the clients saw them
	}{
		{"refetch succeeds", false, []int{200, 200}},
		{"refetch fails", true, []int{200, 502}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			gate := make(chan struct{})
			var once sync.Once
			origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				// Hold the first fetch open briefly so a second client has
				// a window to coalesce onto it.
				once.Do(func() {
					select {
					case <-gate:
					case <-time.After(2 * time.Second):
					}
				})
				w.Header().Set("Content-Type", "application/octet-stream")
				_, _ = w.Write(payload)
			}))
			t.Cleanup(origin.Close)
			u, err := url.Parse(origin.URL)
			if err != nil {
				t.Fatal(err)
			}

			var accessLog lockedBuffer
			srv, err := proxy.New(proxy.Config{
				Capacity:       1 << 20,
				MaxObjectBytes: maxObj,
				Origin:         u,
				Transport:      &firstOnly{failRest: tt.refetchFails},
				AccessLog:      &accessLog,
			})
			if err != nil {
				t.Fatal(err)
			}
			front := httptest.NewServer(srv)
			t.Cleanup(front.Close)

			const clients = 2
			type outcome struct {
				status int
				xcache string
				err    error
			}
			outcomes := make(chan outcome, clients)
			for i := 0; i < clients; i++ {
				go func(i int) {
					resp, err := http.Get(front.URL + "/huge.bin")
					if err != nil {
						outcomes <- outcome{err: fmt.Errorf("client %d: %w", i, err)}
						return
					}
					got, err := io.ReadAll(resp.Body)
					_ = resp.Body.Close()
					if err != nil {
						outcomes <- outcome{err: fmt.Errorf("client %d: read: %w", i, err)}
						return
					}
					if resp.StatusCode == http.StatusOK && !bytes.Equal(got, payload) {
						outcomes <- outcome{err: fmt.Errorf("client %d: received %d bytes, want %d", i, len(got), len(payload))}
						return
					}
					outcomes <- outcome{status: resp.StatusCode, xcache: resp.Header.Get("X-Cache")}
				}(i)
			}
			time.Sleep(50 * time.Millisecond) // give the second client time to coalesce
			close(gate)
			var seen []int
			for i := 0; i < clients; i++ {
				o := <-outcomes
				if o.err != nil {
					t.Fatal(o.err)
				}
				if o.xcache != "MISS" {
					t.Errorf("a %d answer carries X-Cache %q, want MISS", o.status, o.xcache)
				}
				seen = append(seen, o.status)
			}
			sort.Ints(seen)
			if !reflect.DeepEqual(seen, tt.wantStatuses) {
				t.Errorf("clients saw statuses %v, want %v", seen, tt.wantStatuses)
			}
			if n := srv.Len(); n != 0 {
				t.Errorf("cache holds %d objects, want 0", n)
			}

			// The log record is written after the body, so a client can
			// finish first: front.Close waits for both handlers, and the
			// proxy's Close writes their lines out.
			front.Close()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			reqs, err := trace.ReadAll(trace.NewSquidReader(strings.NewReader(accessLog.String())))
			if err != nil {
				t.Fatal(err)
			}
			var logged []int
			for _, r := range reqs {
				logged = append(logged, r.Status)
			}
			sort.Ints(logged)
			if !reflect.DeepEqual(logged, tt.wantStatuses) {
				t.Errorf("access log recorded statuses %v, want %v (each client's own)", logged, tt.wantStatuses)
			}
		})
	}
}

// A response whose Content-Length already says it cannot be cached has
// nothing to probe for: it must reach the client as it arrives, not after
// MaxObjectBytes+1 bytes have been copied into the pool's largest buffers.
// The origin stalls after its first MiB, short of the 2 MiB limit, so a
// proxy that still buffered the probe would have nothing to send yet.
func TestOversizeDeclaredStreamsAtOnce(t *testing.T) {
	const maxObj = 2 << 20
	payload := oversizePayload(3 << 20)

	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		_, _ = w.Write(payload[:1<<20])
		w.(http.Flusher).Flush()
		<-gate
		_, _ = w.Write(payload[1<<20:])
	}))
	t.Cleanup(origin.Close)
	t.Cleanup(release) // first, or origin.Close waits on the handler forever
	u, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	reg, buffers := metrics.NewRegistry(), pool.New()
	srv, err := proxy.New(proxy.Config{Capacity: 8 << 20, MaxObjectBytes: maxObj, Origin: u, Metrics: reg, Buffers: buffers})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	t.Cleanup(front.Close)

	type firstByte struct {
		resp *http.Response
		b    byte
		err  error
	}
	arrived := make(chan firstByte, 1)
	go func() {
		resp, err := http.Get(front.URL + "/big.bin")
		if err != nil {
			arrived <- firstByte{err: err}
			return
		}
		var one [1]byte
		_, err = io.ReadFull(resp.Body, one[:])
		arrived <- firstByte{resp, one[0], err}
	}()
	var got firstByte
	select {
	case got = <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("no byte reached the client while the origin was blocked before its second MiB")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	release()
	rest, err := io.ReadAll(got.resp.Body)
	_ = got.resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got.b != payload[0] || !bytes.Equal(rest, payload[1:]) {
		t.Fatalf("client received %d bytes, want the %d-byte payload intact", 1+len(rest), len(payload))
	}

	// Key scratch and nothing else came out of the pool.
	if st := buffers.Stats(); st.ArenaBytes > 32<<10 || st.Bypass != 0 || st.Outstanding() != 0 {
		t.Errorf("pool after a declared-oversize response: %+v; want ≤ 32 KiB carved, no bypass, none outstanding", st)
	}
	out := exposition(t, reg)
	for _, want := range []string{
		`wcproxy_uncacheable_total{reason="oversize"} 1`,
		fmt.Sprintf("wcproxy_origin_bytes_total %d", len(payload)),
		fmt.Sprintf("wcproxy_request_bytes_total %d", len(payload)),
		"wcproxy_cache_objects 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// An origin that declares an oversize body and then hangs up early has
// not sent a document: the client's read must fail, and nothing — least of
// all the short body — may be in the cache for the next request.
func TestOversizeDeclaredShortBodyIsError(t *testing.T) {
	const maxObj = 32 << 10
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(2*maxObj))
		_, _ = w.Write(oversizePayload(maxObj / 2)) // and return: net/http drops the connection
	}))
	t.Cleanup(origin.Close)
	u, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv, err := proxy.New(proxy.Config{Capacity: 1 << 20, MaxObjectBytes: maxObj, Origin: u, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	t.Cleanup(front.Close)

	for round := 1; round <= 2; round++ {
		resp, err := http.Get(front.URL + "/liar.bin")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err == nil {
			t.Fatalf("round %d: client read %d bytes of a %d-byte declaration without an error", round, len(body), 2*maxObj)
		}
		if xc := resp.Header.Get("X-Cache"); xc != "MISS" {
			t.Fatalf("round %d: X-Cache = %q, want MISS", round, xc)
		}
	}
	if n := srv.Len(); n != 0 {
		t.Fatalf("cache holds %d objects, want 0", n)
	}
	if out := exposition(t, reg); !strings.Contains(out, "wcproxy_origin_errors_total 2") {
		t.Errorf("exposition missing the two failed streams:\n%s", out)
	}
}
