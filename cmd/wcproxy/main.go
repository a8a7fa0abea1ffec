// Command wcproxy runs the live HTTP caching proxy with a pluggable
// replacement policy, periodically printing hit-rate statistics and
// optionally writing a Squid-format access log that feeds back into
// wcstat/wcsim.
//
// With -admin it also serves an operational endpoint exposing Prometheus
// metrics (/metrics) and Go profiling (/debug/pprof/) on a separate
// listener — see docs/METRICS.md. The statistics lines read the same
// metrics. On SIGINT/SIGTERM the proxy drains in-flight requests, prints
// a final statistics line and closes the access log cleanly.
//
// With -topology (plus -self) the proxy joins a consistent-hash fleet:
// documents another node owns are fetched from that sibling before the
// origin and answered with X-Cache: PEER-HIT — see docs/CLUSTER.md. The
// topology file is the one description of a fleet — members, ring
// replicas, and per-node listen address, capacity and policy — so every
// process and tool reads the same layout; explicit -listen, -admin,
// -capacity and -policy flags still win.
//
// Usage:
//
//	wcproxy -listen :3128 [-origin http://upstream] [-capacity 256MB]
//	        [-policy gdstar:p] [-admission tinylfu] [-shards 16]
//	        [-log access.log] [-stats-every 30s] [-admin :9090]
//	        [-fetch-timeout 15s] [-fetch-retries 2] [-retry-backoff 50ms]
//	wcproxy -topology fleet.json -self n1 -origin http://upstream [-peer-timeout 5s]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"syscall"
	"time"

	"webcachesim/internal/admission"
	"webcachesim/internal/cluster"
	"webcachesim/internal/metrics"
	"webcachesim/internal/policy"
	"webcachesim/internal/proxy"
	"webcachesim/internal/units"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wcproxy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wcproxy", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", ":3128", "listen address")
		origin     = fs.String("origin", "", "reverse-proxy origin URL (forward proxy when empty)")
		parent     = fs.String("parent", "", "parent proxy URL for upstream fetches (cache_peer)")
		capacity   = fs.String("capacity", "256MB", "cache capacity; bodies live off the Go heap, so resident memory is about capacity in use + 65 MiB, + under GD*'s online β 83-104 B and the URL for each URL a shard saw in its last 2^21 references")
		policySpec = fs.String("policy", "lru", "replacement policy spec (scheme[:cost])")
		admitSpec  = fs.String("admission", "none", "admission filter spec (none, tinylfu, arc-ghost)")
		shards     = fs.Int("shards", 0, "cache shard count, rounded up to a power of two (0 = default; 1 = exact single-policy eviction order)")
		logPath    = fs.String("log", "", "Squid-format access log path")
		statsEvery = fs.Duration("stats-every", 30*time.Second, "statistics print interval (0 disables)")
		admin      = fs.String("admin", "", "admin listen address for /metrics and /debug/pprof (disabled when empty)")
		fetchTO    = fs.Duration("fetch-timeout", proxy.DefaultFetchTimeout, "per-attempt origin fetch timeout")
		retries    = fs.Int("fetch-retries", proxy.DefaultFetchRetries, "origin fetch retries after a transport failure (-1 disables)")
		backoff    = fs.Duration("retry-backoff", proxy.DefaultRetryBackoff, "base retry backoff (doubled per retry, jittered ±50%)")
		topoPath   = fs.String("topology", "", "cluster topology file; joins the fleet as -self and fills listen/admin/capacity/policy from the node entry unless flagged explicitly")
		self       = fs.String("self", "", "this node's name on the cluster ring (required with -topology)")
		peerTO     = fs.Duration("peer-timeout", proxy.DefaultPeerTimeout, "per peer-fetch timeout (round trip plus body read)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Topology-driven configuration defers to explicit flags: Visit only
	// reports flags the command line actually set.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	var clusterCfg *proxy.ClusterConfig
	if *topoPath != "" {
		if *self == "" {
			return fmt.Errorf("-topology requires -self")
		}
		topo, err := cluster.LoadTopology(*topoPath)
		if err != nil {
			return err
		}
		peers, err := topo.PeerURLs(*self)
		if err != nil {
			return err
		}
		node := topo.Node(*self)
		if !explicit["capacity"] && node.Capacity != "" {
			*capacity = node.Capacity
		}
		if !explicit["policy"] && node.Policy != "" {
			*policySpec = node.Policy
		}
		if !explicit["listen"] {
			if addr := listenAddr(node.URL); addr != "" {
				*listen = addr
			}
		}
		if !explicit["admin"] && node.Admin != "" {
			if addr := listenAddr(node.Admin); addr != "" {
				*admin = addr
			}
		}
		if len(peers) > 0 {
			clusterCfg = &proxy.ClusterConfig{Self: *self, Peers: peers, Replicas: topo.Replicas, PeerTimeout: *peerTO}
		}
	}

	spec, err := policy.ParseSpec(*policySpec)
	if err != nil {
		return err
	}
	factory, err := policy.NewFactory(spec)
	if err != nil {
		return err
	}
	admitter, err := admission.ParseSpec(*admitSpec)
	if err != nil {
		return err
	}
	capBytes, err := units.ParseBytes(*capacity)
	if err != nil {
		return err
	}

	reg := metrics.NewRegistry()
	cfg := proxy.Config{
		Capacity:     capBytes,
		Policy:       factory,
		Admission:    admitter,
		Metrics:      reg,
		Shards:       *shards,
		FetchTimeout: *fetchTO,
		FetchRetries: *retries,
		RetryBackoff: *backoff,
		Cluster:      clusterCfg,
	}
	if *origin != "" {
		u, err := cluster.AbsoluteURL(*origin)
		if err != nil {
			return fmt.Errorf("bad origin: %w", err)
		}
		cfg.Origin = u
	}
	if *parent != "" {
		u, err := cluster.AbsoluteURL(*parent)
		if err != nil {
			return fmt.Errorf("bad parent: %w", err)
		}
		cfg.Transport = &http.Transport{Proxy: http.ProxyURL(u)}
	}
	var logFile *os.File
	if *logPath != "" {
		logFile, err = os.Create(*logPath)
		if err != nil {
			return err
		}
		cfg.AccessLog = logFile
	}
	srv, err := proxy.New(cfg)
	if err != nil {
		if logFile != nil {
			_ = logFile.Close()
		}
		return err
	}

	httpServer := &http.Server{Addr: *listen, Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 2)
	go func() {
		errCh <- httpServer.ListenAndServe()
	}()
	fmt.Printf("wcproxy: %s policy, %s admission, %s cache, %d shards, listening on %s\n",
		factory.Name, admitter.Name, *capacity, srv.Shards(), *listen)

	var adminServer *http.Server
	if *admin != "" {
		adminServer = &http.Server{
			Addr:              *admin,
			Handler:           proxy.AdminHandler(reg),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := adminServer.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				errCh <- fmt.Errorf("admin: %w", err)
			}
		}()
		fmt.Printf("wcproxy: admin endpoint on %s (/metrics, /debug/pprof/)\n", *admin)
	}

	printStats := func(prefix string) {
		line, err := statsLine(reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wcproxy: stats:", err)
			return
		}
		fmt.Println(prefix + line)
	}

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *statsEvery > 0 {
		ticker = time.NewTicker(*statsEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case err := <-errCh:
			if logFile != nil {
				_ = srv.Close()
				_ = logFile.Close()
			}
			return err
		case <-tick:
			printStats("")
		case <-sig:
			// Flush a final stats line, drain in-flight requests, and
			// close the access log so the last entries reach disk — the
			// log is a trace for the rest of the pipeline, and a
			// truncated tail corrupts it.
			printStats("final: ")
			return shutdown(httpServer, adminServer, srv, logFile)
		}
	}
}

// statsLine renders the statistics line from the registry's exposition,
// read back through proxy.ReadCounts as any scrape of /metrics would be.
func statsLine(reg *metrics.Registry) (string, error) {
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		return "", err
	}
	m, err := metrics.ParseText(&text)
	if err != nil {
		return "", err
	}
	all, _ := proxy.ReadCounts(m)
	return fmt.Sprintf("requests=%d hits=%d hr=%.3f bhr=%.3f used=%dMB objects=%d evictions=%d",
		all.Requests, all.Hits, all.HitRate(), all.ByteHitRate(),
		int64(m["wcproxy_cache_used_bytes"])>>20, int64(m["wcproxy_cache_objects"]),
		int64(m["wcproxy_evictions_total"])), nil
}

// listenAddr derives a listen address (":port") from a topology node URL,
// or "" when the URL carries no explicit port.
func listenAddr(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil {
		return ""
	}
	if p := u.Port(); p != "" {
		return ":" + p
	}
	return ""
}

// shutdown drains both listeners, writes out the proxy's buffered access
// log and closes it, returning the first failure.
func shutdown(httpServer, adminServer *http.Server, srv *proxy.Server, logFile *os.File) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := httpServer.Shutdown(ctx)
	if adminServer != nil {
		if aerr := adminServer.Shutdown(ctx); err == nil {
			err = aerr
		}
	}
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if logFile != nil {
		if cerr := logFile.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
