package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"webcachesim/internal/metrics"
	"webcachesim/internal/proxy"
)

func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

func TestRunServesAndCaches(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "image/gif")
		fmt.Fprint(w, "hello-gif")
	}))
	defer origin.Close()

	addr := freePort(t)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-listen", addr,
			"-origin", origin.URL,
			"-capacity", "1MB",
			"-policy", "gdstar:p",
			"-stats-every", "0",
		})
	}()

	// Wait for the listener, then exercise the cache.
	var resp *http.Response
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = http.Get("http://" + addr + "/a.gif")
		if err == nil || time.Now().After(deadline) {
			break
		}
		select {
		case serveErr := <-errCh:
			t.Fatalf("server exited early: %v", serveErr)
		case <-time.After(20 * time.Millisecond):
		}
	}
	if err != nil {
		t.Fatalf("proxy never came up: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if string(body) != "hello-gif" {
		t.Errorf("body = %q", body)
	}

	resp, err = http.Get("http://" + addr + "/a.gif")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Error("second request was not a cache hit")
	}
}

func TestRunFlagErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"bad policy", []string{"-policy", "nope"}},
		{"window option", []string{"-admission", "tinylfu:window=1000"}},
		{"bad capacity", []string{"-capacity", "xyz"}},
		{"bad log path", []string{"-log", "/nonexistent-dir/x.log"}},
		{"topology without self", []string{"-topology", "fleet.json"}},
		// A fleet is described by its topology file and nothing else.
		{"no -peers flag", []string{"-self", "n1", "-peers", "n2=http://127.0.0.1:1"}},
		{"no -replicas flag", []string{"-replicas", "1"}},
		// The retry policy is fixed: two jittered retries from 50 ms.
		{"no -fetch-retries flag", []string{"-fetch-retries", "2"}},
		{"no -retry-backoff flag", []string{"-retry-backoff", "50ms"}},
		// url.Parse reads "localhost" as the scheme; such a proxy would
		// start and answer 502 to every request.
		{"origin without scheme", []string{"-origin", "localhost:1"}},
		{"parent without scheme", []string{"-parent", "localhost:1"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestRunAdminEndpointAndShutdown exercises the -admin listener and the
// signal-driven shutdown: metrics and pprof must be served, and run must
// return cleanly (flushing the access log) on SIGINT.
func TestRunAdminEndpointAndShutdown(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "payload")
	}))
	defer origin.Close()

	addr := freePort(t)
	adminAddr := freePort(t)
	logPath := filepath.Join(t.TempDir(), "access.log")
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-listen", addr,
			"-origin", origin.URL,
			"-capacity", "1MB",
			"-log", logPath,
			"-stats-every", "0",
			"-admin", adminAddr,
		})
	}()

	get := func(url string) (int, string) {
		t.Helper()
		var resp *http.Response
		var err error
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err = http.Get(url)
			if err == nil || time.Now().After(deadline) {
				break
			}
			select {
			case serveErr := <-errCh:
				t.Fatalf("server exited early: %v", serveErr)
			case <-time.After(20 * time.Millisecond):
			}
		}
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	get("http://" + addr + "/doc.html") // one request so counters move

	if code, body := get("http://" + adminAddr + "/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "wcproxy_requests_total 1") {
		t.Errorf("/metrics: code=%d body=%.200s", code, body)
	}
	// /metrics is the one ledger; there is no second one to serve.
	if code, _ := get("http://" + adminAddr + "/stats"); code != http.StatusNotFound {
		t.Errorf("/stats: code=%d, want 404", code)
	}
	if code, _ := get("http://" + adminAddr + "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/: code=%d", code)
	}

	// SIGINT must shut the proxy down cleanly, with the access log
	// flushed to disk. Resend while run tears down in case the first
	// signal raced with handler registration.
	proc, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := proc.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		select {
		case runErr := <-errCh:
			if runErr != nil {
				t.Fatalf("run returned %v after SIGINT", runErr)
			}
			logged, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(logged), "/doc.html") {
				t.Errorf("access log missing request:\n%s", logged)
			}
			return
		case <-time.After(200 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("run did not return after SIGINT")
			}
		}
	}
}

// TestRunStatsLine: the -stats-every and final: lines read the process's
// own registry through proxy.ReadCounts, so they say what a scrape says.
func TestRunStatsLine(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "image/gif")
		fmt.Fprint(w, "hello-gif")
	}))
	defer origin.Close()
	u, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv, err := proxy.New(proxy.Config{Capacity: 1 << 20, Origin: u, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for range 4 { // one miss, then three hits of 9 bytes each
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/a.gif", nil))
	}
	line, err := statsLine(reg)
	if err != nil {
		t.Fatal(err)
	}
	if want := "requests=4 hits=3 hr=0.750 bhr=0.750 used=0MB objects=1 evictions=0"; line != want {
		t.Errorf("stats line %q, want %q", line, want)
	}
}
