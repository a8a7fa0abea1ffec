package proxy

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"webcachesim/internal/metrics"
)

// authOrigin answers "secret" to a request carrying Authorization and
// "public" to any other, after waiting on gate when one is set.
type authOrigin struct {
	gate    chan struct{}
	fetches atomic.Int64
}

func (o *authOrigin) RoundTrip(req *http.Request) (*http.Response, error) {
	o.fetches.Add(1)
	if o.gate != nil {
		<-o.gate
	}
	body := "public"
	if req.Header.Get("Authorization") != "" {
		body = "secret"
	}
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"text/html"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
	}, nil
}

func authRequest(authorized bool) *http.Request {
	r := httptest.NewRequest(http.MethodGet, "/account.html", nil)
	if authorized {
		r.Header.Set("Authorization", "Bearer alice")
	}
	return r
}

func checkServed(t *testing.T, who string, rr *httptest.ResponseRecorder, body, xcache string) {
	t.Helper()
	if got := rr.Body.String(); got != body {
		t.Errorf("%s got %q, want %q", who, got, body)
	}
	if got := rr.Header().Get("X-Cache"); got != xcache {
		t.Errorf("%s: X-Cache = %q, want %q", who, got, xcache)
	}
}

// TestAuthorizedResponseIsNotStored: a body fetched with one client's
// credentials must not be served to the next anonymous client. It was
// stored, and the anonymous GET came back "secret" as a HIT.
func TestAuthorizedResponseIsNotStored(t *testing.T) {
	reg := metrics.NewRegistry()
	p, _ := reverseProxy(t, Config{Metrics: reg}, &authOrigin{})
	serve := func(authorized bool) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		p.ServeHTTP(rr, authRequest(authorized))
		return rr
	}
	checkServed(t, "authorized client", serve(true), "secret", "MISS")
	if p.Len() != 0 {
		t.Errorf("store holds %d objects after an authorized fetch, want 0", p.Len())
	}
	checkServed(t, "anonymous client", serve(false), "public", "MISS")
	checkServed(t, "second anonymous client", serve(false), "public", "HIT")
	m := scrape(t, reg)
	if got := m[`wcproxy_uncacheable_total{reason="authorization"}`]; got != 1 {
		t.Errorf(`wcproxy_uncacheable_total{reason="authorization"} = %d, want 1`, got)
	}
	if got := m[`wcproxy_uncacheable_total{reason="rules"}`]; got != 0 {
		t.Errorf(`wcproxy_uncacheable_total{reason="rules"} = %d, want 0`, got)
	}
}

// TestAuthorizedFetchIsNotShared: concurrent misses on one URL share a
// fetch only among clients without credentials. An anonymous request
// arriving while an authorized one is at the origin joined its flight and
// received "secret"; an authorized one arriving second received the
// anonymous body. Each must fetch for itself.
func TestAuthorizedFetchIsNotShared(t *testing.T) {
	for _, row := range []struct {
		name             string
		leaderAuthorized bool
	}{{"authorized first", true}, {"anonymous first", false}} {
		t.Run(row.name, func(t *testing.T) {
			origin := &authOrigin{gate: make(chan struct{})}
			p, _ := reverseProxy(t, Config{}, origin)
			lead, wait := coalescedPair(t, p, func() bool { return origin.fetches.Load() > 0 }, origin.gate,
				authRequest(row.leaderAuthorized), authRequest(!row.leaderAuthorized))
			body := map[bool]string{true: "secret", false: "public"}
			checkServed(t, "first client", lead, body[row.leaderAuthorized], "MISS")
			checkServed(t, "second client", wait, body[!row.leaderAuthorized], "MISS")
			if got := wait.Header().Get("X-Coalesced"); got != "" {
				t.Errorf("second client: X-Coalesced = %q, want none", got)
			}
			if got := origin.fetches.Load(); got != 2 {
				t.Errorf("origin saw %d fetches, want 2", got)
			}
			if p.Len() != 1 {
				t.Errorf("store holds %d objects, want only the anonymous one", p.Len())
			}
		})
	}
}
