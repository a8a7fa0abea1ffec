package proxy

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// The scaling benchmark: the sharded, miss-coalescing server at 1, 4 and
// 8 closed-loop clients.
//
// The workload is a miss storm: clients walk a shared URL sequence in
// lockstep (url = n/conc), so at any moment all of them want the same
// cold object — the hot-object arrival burst that motivates coalescing.
// The fake origin charges real CPU work synthesizing each body, spread
// over several scheduler yield points the way a real round trip is spread
// over network reads; during those yields other clients run, see the
// still-absent entry, and join the miss leader's fetch. The origin price
// is CPU because time.Sleep cannot stand in for origin cost here: this
// container's timer granularity is ~1ms, so sleeps would swamp the work
// being measured.

const (
	benchBodySize = 64 << 10
	benchCPUWork  = 6 // xorshift passes over the body
	benchIOSlices = 4 // yield points per fetch, as network reads would
)

// benchOrigin synthesizes deterministic bodies at a fixed CPU cost.
type benchOrigin struct{}

func (benchOrigin) RoundTrip(req *http.Request) (*http.Response, error) {
	body := make([]byte, benchBodySize)
	x := uint64(len(req.URL.Path)) + 0x9e3779b97f4a7c15
	slice := len(body) / benchIOSlices
	for pass := 0; pass < benchCPUWork; pass++ {
		for i := range body {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			body[i] = byte(x)
			if (i+1)%slice == 0 {
				runtime.Gosched()
			}
		}
	}
	h := make(http.Header)
	h.Set("Content-Type", "image/gif")
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
	}, nil
}

// benchServe drives b.N requests through the handler with conc
// closed-loop clients sharing one URL sequence.
func benchServe(b *testing.B, h http.Handler, conc int) {
	b.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				if n >= int64(b.N) {
					return
				}
				path := fmt.Sprintf("/d%d.gif", n/int64(conc))
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, absReq(path))
				if rr.Code != http.StatusOK {
					b.Errorf("%s: status %d", path, rr.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkProxySharded(b *testing.B) {
	for _, conc := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("c%d", conc), func(b *testing.B) {
			p, err := New(Config{Capacity: 1 << 31, Transport: benchOrigin{}})
			if err != nil {
				b.Fatal(err)
			}
			benchServe(b, p, conc)
		})
	}
}

// The steady-state hit benchmark: one resident object served through a
// no-op ResponseWriter, so the measured ns/op and allocs/op are the serve
// path itself, not net/http's response plumbing. TestHitPathZeroAlloc
// pins the 0 allocs/op this reports.

const hitBenchBody = 16 << 10

func BenchmarkProxyHit(b *testing.B) {
	s, _ := reverseProxy(b, Config{}, patternOrigin{size: hitBenchBody})
	warm := httptest.NewRecorder()
	s.ServeHTTP(warm, httptest.NewRequest(http.MethodGet, "/hot.gif", nil))
	if warm.Code != http.StatusOK {
		b.Fatalf("warmup status %d", warm.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/hot.gif", nil)
	w := &nopWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, req)
	}
}
