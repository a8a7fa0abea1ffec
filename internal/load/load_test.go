package load

import (
	"fmt"
	"net"
	"net/http"
	"net/url"
	"testing"
	"time"

	"webcachesim/internal/cluster"
	"webcachesim/internal/trace"
)

func TestParseMode(t *testing.T) {
	if m, err := ParseMode("reverse"); err != nil || m != Reverse {
		t.Errorf("ParseMode(reverse) = %v, %v", m, err)
	}
	if m, err := ParseMode("forward"); err != nil || m != Forward {
		t.Errorf("ParseMode(forward) = %v, %v", m, err)
	}
	if _, err := ParseMode("sideways"); err == nil {
		t.Error("ParseMode(sideways) should fail")
	}
}

func TestSetTargetReverse(t *testing.T) {
	target, _ := url.Parse("http://127.0.0.1:9999")
	w := &worker{mode: Reverse, reqURL: *target, req: &http.Request{}}
	u, err := url.Parse("http://dfn.synth.example/html/d42?x=1")
	if err != nil {
		t.Fatal(err)
	}
	w.setTarget(u)
	if got, want := w.req.URL.String(), "http://127.0.0.1:9999/html/d42?x=1"; got != want {
		t.Errorf("mapped URL = %q, want %q", got, want)
	}
}

func TestSetTargetForward(t *testing.T) {
	target, _ := url.Parse("http://127.0.0.1:9999")
	raw := "http://dfn.synth.example/html/d42"
	w := &worker{mode: Forward, reqURL: *target, req: &http.Request{}}
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	w.setTarget(u)
	if got := w.req.URL.String(); got != raw {
		t.Errorf("mapped URL = %q, want original URL %q", got, raw)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 5},
		{0.90, 9},
		{0.99, 10},
		{1.00, 10},
		{0.01, 1},
	}
	for _, tc := range cases {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(%.2f) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile([]time.Duration{7}, 0.5); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if l := summarize(nil); l != (Latency{}) {
		t.Errorf("summarize(nil) = %+v, want zero", l)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("Run without Topology should fail")
	}
	topo := &cluster.Topology{Nodes: []cluster.Node{{Name: "target", URL: "http://127.0.0.1:1"}}}
	if _, err := Run(Config{Topology: topo}); err == nil {
		t.Error("Run without Source should fail")
	}
}

// TestRunTalliesRefusedConnections: a request that gets no response at
// all is an error, not a request, and does not stop the run.
func TestRunTalliesRefusedConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	const n = 20
	reqs := make([]*trace.Request, n)
	for i := range reqs {
		reqs[i] = &trace.Request{URL: fmt.Sprintf("http://dfn.synth.example/html/d%d", i)}
	}
	rep, err := Run(Config{
		Topology:    &cluster.Topology{Nodes: []cluster.Node{{Name: "closed", URL: "http://" + addr}}},
		Source:      trace.NewSliceReader(reqs),
		Concurrency: 2,
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tally.Errors != n || rep.Tally.Requests != 0 {
		t.Errorf("tally against a closed listener: %d errors, %d requests; want %d errors, 0 requests",
			rep.Tally.Errors, rep.Tally.Requests, n)
	}
}
