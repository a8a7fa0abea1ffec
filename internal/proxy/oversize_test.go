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
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webcachesim/internal/metrics"
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
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, `wcproxy_uncacheable_total{reason="oversize"} 2`) {
		t.Errorf("exposition missing oversize count:\n%s", out)
	}
	st := srv.Stats()
	if st.Hits != 0 || st.Requests != 2 {
		t.Errorf("stats = %d requests / %d hits, want 2 / 0", st.Requests, st.Hits)
	}
	if want := int64(2 * len(payload)); st.ReqBytes != want {
		t.Errorf("stats.ReqBytes = %d, want %d (full streamed size)", st.ReqBytes, want)
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
// record each client's own status, not the leader's for both.
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
					outcomes <- outcome{status: resp.StatusCode}
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
			// finish first; wait for both lines.
			var logged []int
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				reqs, err := trace.ReadAll(trace.NewSquidReader(strings.NewReader(accessLog.String())))
				if err != nil {
					t.Fatal(err)
				}
				if len(reqs) == clients || time.Now().After(deadline) {
					for _, r := range reqs {
						logged = append(logged, r.Status)
					}
					break
				}
			}
			sort.Ints(logged)
			if !reflect.DeepEqual(logged, tt.wantStatuses) {
				t.Errorf("access log recorded statuses %v, want %v (each client's own)", logged, tt.wantStatuses)
			}
		})
	}
}
