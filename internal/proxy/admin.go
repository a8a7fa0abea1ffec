package proxy

import (
	"net/http"
	"net/http/pprof"

	"webcachesim/internal/metrics"
)

// AdminHandler serves the proxy's operational endpoints, meant for a
// separate, non-public listener (wcproxy -admin):
//
//	/metrics      Prometheus text exposition of reg, the proxy's one ledger
//	              (ReadCounts reads it back as the paper's counts)
//	/debug/pprof/ the standard Go profiling endpoints
//	/             a plain-text index of the above
//
// The pprof handlers are mounted explicitly rather than through
// net/http/pprof's init side effect, so profiling is only reachable
// through this handler — never on the proxy's traffic port.
func AdminHandler(reg *metrics.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Index page write failure means the admin client went away.
		_, _ = w.Write([]byte("wcproxy admin endpoints:\n" +
			"  /metrics       Prometheus text format\n" +
			"  /debug/pprof/  Go profiling\n"))
	})
	return mux
}
