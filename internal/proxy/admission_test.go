package proxy_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"webcachesim/internal/metrics"
	"webcachesim/internal/policy"
	"webcachesim/internal/proxy"
)

// freeSpaceOnly admits only into free space, making admission rejections
// deterministic regardless of body sizes.
type freeSpaceOnly struct {
	counts policy.AdmissionCounts
}

func (f *freeSpaceOnly) Touch(*policy.Doc) {}
func (f *freeSpaceOnly) Admit(candidate, victim *policy.Doc) bool {
	f.counts.Rejected++
	return false
}
func (f *freeSpaceOnly) Inserted(*policy.Doc)           { f.counts.Admitted++ }
func (f *freeSpaceOnly) Evicted(*policy.Doc)            {}
func (f *freeSpaceOnly) Counts() policy.AdmissionCounts { return f.counts }

func freeSpaceOnlyFactory() policy.AdmitterFactory {
	return policy.AdmitterFactory{
		Name: "free-space-only",
		New:  func(int64) policy.Admitter { return &freeSpaceOnly{} },
	}
}

// newAdmissionProxy builds a one-shard reverse proxy whose cache holds
// exactly one test body, so the second distinct URL must contest.
func newAdmissionProxy(t *testing.T) (*proxy.Server, *metrics.Registry) {
	t.Helper()
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "image/gif")
		fmt.Fprintf(w, "body-of-%s", r.URL.Path)
	}))
	t.Cleanup(origin.Close)
	u, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv, err := proxy.New(proxy.Config{
		Capacity:  20, // one "body-of-/x.gif" body (14 bytes), not two
		Shards:    1,
		Origin:    u,
		Metrics:   reg,
		Admission: freeSpaceOnlyFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, reg
}

func TestProxyAdmissionRejectHeaderAndCounters(t *testing.T) {
	srv, reg := newAdmissionProxy(t)

	first := get(t, srv, "/a.gif")
	if h := first.Header().Get("X-Admission"); h != "" {
		t.Errorf("first miss stored into free space; X-Admission = %q, want unset", h)
	}

	rejected := get(t, srv, "/b.gif")
	if rejected.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("X-Cache = %q, want MISS", rejected.Header().Get("X-Cache"))
	}
	if h := rejected.Header().Get("X-Admission"); h != "reject" {
		t.Errorf("X-Admission = %q, want reject", h)
	}

	// The rejected document was never stored: a repeat is a fresh miss
	// and a fresh rejection, while the protected resident keeps hitting.
	again := get(t, srv, "/b.gif")
	if h := again.Header().Get("X-Admission"); h != "reject" {
		t.Errorf("repeat X-Admission = %q, want reject", h)
	}
	if hit := get(t, srv, "/a.gif"); hit.Header().Get("X-Cache") != "HIT" {
		t.Errorf("resident entry should still hit, got X-Cache = %q", hit.Header().Get("X-Cache"))
	}

	text := exposition(t, reg)
	for _, want := range []string{
		"wcproxy_admission_rejected_total 2",
		"wcproxy_admission_admitted_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

// TestProxyWithoutFeaturesExportsZeroedSeries: the admission and peer
// series are part of every proxy's /metrics surface, reading zero (and
// the peers gauge not dereferencing a missing cluster) when the proxy
// runs without a filter and without a fleet.
func TestProxyWithoutFeaturesExportsZeroedSeries(t *testing.T) {
	srv, reg, _ := newInstrumented(t, 1<<20)
	get(t, srv, "/a.gif")
	if rr := get(t, srv, "/a.gif"); rr.Header().Get("X-Admission") != "" {
		t.Errorf("X-Admission must never be set without a filter")
	}
	text := exposition(t, reg)
	for _, want := range []string{
		"wcproxy_admission_admitted_total 0",
		"wcproxy_admission_rejected_total 0",
		"wcproxy_admission_ghost_hits 0",
		"wcproxy_peer_hits_total 0",
		"wcproxy_peer_fetches_total 0",
		"wcproxy_peer_errors_total 0",
		"wcproxy_cluster_peers 0",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}
