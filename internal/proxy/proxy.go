// Package proxy implements a working HTTP caching proxy on top of the
// replacement-policy engine — the system the simulator models. It serves
// both as a live demonstration of the policies and as a trace source: the
// proxy emits Squid-native access logs that feed straight back into the
// trace parser, characterization, and simulator.
//
// The serving path is built for concurrency: objects live in a sharded
// store (internal/cache) whose per-shard locks keep lookups on distinct
// URLs from contending, concurrent misses on one URL collapse into a
// single origin fetch (internal/flight), and the origin fetch itself is
// hardened — per-attempt timeout, bounded retries with jittered
// exponential backoff, and a stale-on-error fallback that serves an
// expired cached copy when the origin is unreachable. No lock is ever
// held across an origin round trip, so a slow origin on one URL cannot
// delay cache hits on any other. See docs/PROXY.md for the design.
//
// The proxy applies the same cacheability rules the paper's preprocessing
// assumes (GET only, the Section 2 status-code whitelist, the CGI/query
// heuristics) plus Cache-Control: no-store. Expiration is honored only as
// far as stale-on-error needs it: an entry past its max-age/Expires is
// revalidated by refetching, and served anyway if the origin is down.
// Full consistency protocols remain out of scope, as in the paper.
package proxy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webcachesim/internal/cache"
	"webcachesim/internal/doctype"
	"webcachesim/internal/flight"
	"webcachesim/internal/metrics"
	"webcachesim/internal/policy"
	"webcachesim/internal/pool"
	"webcachesim/internal/trace"
)

// DefaultMaxObjectBytes bounds the size of a single cached response body.
const DefaultMaxObjectBytes = 8 << 20

// Default fetch-robustness parameters; see Config.
const (
	DefaultFetchTimeout = 15 * time.Second
	DefaultFetchRetries = 2
	DefaultRetryBackoff = 50 * time.Millisecond
)

// Config parameterizes a proxy server.
type Config struct {
	// Capacity is the cache size in bytes; it must be positive.
	Capacity int64
	// Policy builds the replacement scheme; LRU when unset. Each cache
	// shard runs its own instance.
	Policy policy.Factory
	// Shards is the cache shard count, rounded up to a power of two
	// (cache.DefaultShards when 0). One shard reproduces the exact
	// single-policy eviction order the simulator models; more shards
	// scale lookups across cores at the cost of per-shard (approximate)
	// eviction order.
	Shards int
	// Admission builds the optional admission filter that screens
	// cacheable responses before they may displace resident objects
	// (see docs/ADMISSION.md). Each cache shard runs its own instance,
	// like Policy. A zero value (nil New) admits everything.
	Admission policy.AdmitterFactory
	// Origin, when set, turns the proxy into a reverse proxy: every
	// request is rewritten to the origin. When nil, the proxy acts as a
	// forward proxy and requires absolute-form request URLs.
	Origin *url.URL
	// Parent, when set, routes upstream fetches through another HTTP
	// proxy — Squid's cache_peer parent relationship. Chaining two
	// Servers this way forms a live two-level cache hierarchy.
	Parent *url.URL
	// Cluster, when set, makes this proxy one node of a consistent-hash
	// fleet: a local miss on a document another node owns consults that
	// sibling before the origin (Squid's cache_peer sibling relationship,
	// with hash routing instead of ICP). Requires Origin (reverse mode).
	// See ClusterConfig and docs/CLUSTER.md.
	Cluster *ClusterConfig
	// Transport performs upstream fetches; http.DefaultTransport when
	// nil. Ignored when Parent is set.
	Transport http.RoundTripper
	// AccessLog, when set, receives Squid-native log lines.
	AccessLog io.Writer
	// MaxObjectBytes bounds a single cached object
	// (DefaultMaxObjectBytes when 0).
	MaxObjectBytes int64
	// FetchTimeout bounds each origin fetch attempt, round trip plus body
	// read (DefaultFetchTimeout when 0). The fetch runs on a detached
	// context: its result is shared by every coalesced waiter, so it must
	// not die with the first client that disconnects.
	FetchTimeout time.Duration
	// FetchRetries is the number of additional attempts after a failed
	// origin fetch (DefaultFetchRetries when 0; negative disables
	// retries). Attempts are spaced by jittered exponential backoff.
	FetchRetries int
	// RetryBackoff is the base delay before the first retry; each further
	// retry doubles it, and every delay is jittered by ±50%
	// (DefaultRetryBackoff when 0).
	RetryBackoff time.Duration
	// Now supplies timestamps (time.Now when nil); injectable for tests.
	Now func() time.Time
	// Buffers is the buffer pool backing the serving path — origin bodies
	// are read into its buffers and cached entries return them on their
	// last release (pool.Default when nil). Tests and benchmarks inject a
	// private pool to get isolated acquire/release accounting.
	Buffers *pool.Pool
	// Metrics, when set, receives the proxy's exported instrumentation
	// (request/hit/eviction counters, origin-fetch latency and object-size
	// histograms, occupancy gauges — see docs/METRICS.md). When nil the
	// proxy still keeps its counters on a private registry, so
	// instrumentation cost is identical either way: a few atomic adds per
	// request.
	Metrics *metrics.Registry
}

// Stats is a snapshot of the proxy's accounting, overall and per class.
type Stats struct {
	// Requests and Hits count all handled GET requests and cache hits.
	Requests int64 `json:"requests"`
	Hits     int64 `json:"hits"`
	// ReqBytes and HitBytes count body bytes requested and served from
	// cache.
	ReqBytes int64 `json:"reqBytes"`
	HitBytes int64 `json:"hitBytes"`
	// Evictions counts replacement victims.
	Evictions int64 `json:"evictions"`
	// Coalesced counts misses that shared another request's origin fetch
	// instead of issuing their own; they are included in the miss count.
	Coalesced int64 `json:"coalesced"`
	// StaleServed counts requests answered with an expired cached copy
	// because the origin was unreachable; they are included in the miss
	// count.
	StaleServed int64 `json:"staleServed"`
	// AdmissionRejects counts cacheable responses the admission filter
	// refused to store; always zero without a configured filter.
	AdmissionRejects int64 `json:"admissionRejects,omitempty"`
	// PeerHits counts requests answered from a sibling node's cache —
	// neither a local hit nor a miss: Requests = Hits + PeerHits + Misses
	// on a clustered proxy. Always zero without a cluster.
	PeerHits int64 `json:"peerHits,omitempty"`
	// ByClass breaks requests and hits down by document class.
	ByClass [doctype.NumClasses + 1]struct {
		Requests int64 `json:"requests"`
		Hits     int64 `json:"hits"`
	} `json:"byClass"`
}

// HitRate returns Hits/Requests, or 0 without traffic.
func (s Stats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests)
}

// ByteHitRate returns HitBytes/ReqBytes, or 0 without traffic.
func (s Stats) ByteHitRate() float64 {
	if s.ReqBytes == 0 {
		return 0
	}
	return float64(s.HitBytes) / float64(s.ReqBytes)
}

// serveResult classifies how a request was answered, for headers and
// accounting. Requests = hits + peer hits + misses; coalesced and
// stale-served are sub-categories of miss.
type serveResult int

const (
	resultHit       serveResult = iota // fresh copy served from cache
	resultMiss                         // fetched from the origin by this request
	resultCoalesced                    // shared another request's origin fetch
	resultStale                        // origin down; expired copy served
	resultPeerHit                      // served from the owning sibling's cache
)

// Server is the caching proxy; it implements http.Handler.
type Server struct {
	cfg       Config
	transport http.RoundTripper
	now       func() time.Time
	store     *cache.Cache
	buffers   *pool.Pool
	fetches   flight.Group
	sleep     func(time.Duration) // retry backoff; injectable for tests

	// cluster is the fleet-routing view, nil on an unclustered proxy;
	// UpdateCluster swaps it atomically on membership changes. Peer
	// fetches use their own transport and timeout: Parent rewires
	// s.transport through the parent proxy, but sibling traffic must go
	// direct.
	cluster       atomic.Pointer[clusterState]
	peerTransport http.RoundTripper
	peerTimeout   time.Duration

	// originPrefix, when non-nil, is the byte-exact "scheme://host" prefix
	// every reverse-proxy cache key starts with — the zero-allocation hit
	// path appends the request's path and query to it in a pooled scratch
	// buffer instead of building a url.URL and calling String(). nil when
	// the fast path cannot guarantee byte-identity with targetURL (forward
	// mode, or an origin URL whose String() is not prefix-shaped).
	originPrefix []byte

	// mu guards only the cold accounting below — never any part of the
	// serving or fetching path.
	mu    sync.Mutex
	stats Stats
	logw  *trace.SquidWriter

	metrics *serverMetrics
}

var _ http.Handler = (*Server)(nil)

// New creates a proxy server.
func New(cfg Config) (*Server, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("proxy: capacity %d must be positive", cfg.Capacity)
	}
	if cfg.Policy.New == nil {
		cfg.Policy = policy.MustFactory(policy.Spec{Scheme: "lru"})
	}
	if cfg.MaxObjectBytes <= 0 {
		cfg.MaxObjectBytes = DefaultMaxObjectBytes
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = DefaultFetchTimeout
	}
	if cfg.FetchRetries == 0 {
		cfg.FetchRetries = DefaultFetchRetries
	}
	if cfg.FetchRetries < 0 {
		cfg.FetchRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.Cluster != nil && cfg.Origin == nil {
		return nil, fmt.Errorf("proxy: clustering requires reverse mode (Origin); fleet members must key their caches identically")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		cfg:       cfg,
		transport: cfg.Transport,
		now:       cfg.Now,
		sleep:     time.Sleep,
		buffers:   cfg.Buffers,
		metrics:   newServerMetrics(reg),
	}
	if cfg.Cluster != nil {
		cs, err := buildClusterState(*cfg.Cluster)
		if err != nil {
			return nil, err
		}
		s.cluster.Store(cs)
		s.peerTransport = cfg.Cluster.Transport
		if s.peerTransport == nil {
			s.peerTransport = http.DefaultTransport
		}
		s.peerTimeout = cfg.Cluster.PeerTimeout
		if s.peerTimeout <= 0 {
			s.peerTimeout = DefaultPeerTimeout
		}
	}
	if s.buffers == nil {
		s.buffers = pool.Default
	}
	if cfg.Origin != nil {
		// Probe whether reverse-proxy keys are prefix-shaped: build a key
		// exactly the way targetURL does and check it ends with the probe
		// path and query. If it does, the hit path can assemble keys as
		// prefix+path[+?query] without allocating; if not (userinfo,
		// ForceQuery, an opaque origin, ...), every request takes the
		// general path. Byte-identity with targetURL is what makes the
		// fast key safe: both paths address the same cache namespace.
		const probePath, probeQuery = "/fastkey-probe", "fastkey=1"
		u := *cfg.Origin
		u.Path = probePath
		u.RawQuery = probeQuery
		if str := u.String(); strings.HasSuffix(str, probePath+"?"+probeQuery) {
			s.originPrefix = []byte(strings.TrimSuffix(str, probePath+"?"+probeQuery))
		}
	}
	store, err := cache.New(cache.Config{
		Capacity:  cfg.Capacity,
		Shards:    cfg.Shards,
		Policy:    cfg.Policy,
		Admission: cfg.Admission,
		OnEvict:   func(*cache.Entry) { s.metrics.evictions.Inc() },
	})
	if err != nil {
		return nil, fmt.Errorf("proxy: %w", err)
	}
	s.store = store
	s.registerGauges(reg)
	if cfg.Parent != nil {
		parent := cfg.Parent
		s.transport = &http.Transport{
			Proxy: func(*http.Request) (*url.URL, error) { return parent, nil },
		}
	}
	if s.transport == nil {
		s.transport = http.DefaultTransport
	}
	if s.now == nil {
		s.now = time.Now
	}
	if cfg.AccessLog != nil {
		s.logw = trace.NewSquidWriter(cfg.AccessLog)
	}
	return s, nil
}

// Stats returns a snapshot of the proxy's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.Evictions = s.store.Evictions()
	st.AdmissionRejects = s.store.AdmissionRejects()
	return st
}

// Used returns the current cache occupancy in bytes.
func (s *Server) Used() int64 { return s.store.Used() }

// Len returns the number of cached objects.
func (s *Server) Len() int { return s.store.Len() }

// Shards returns the cache shard count.
func (s *Server) Shards() int { return s.store.Shards() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "proxy caches GET only", http.StatusMethodNotAllowed)
		return
	}
	if s.originPrefix != nil && s.tryFastHit(w, r) {
		return
	}
	target, err := s.targetURL(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := target.String()

	if e, ok := s.store.Get(key); ok {
		if fresh(e, s.now()) {
			s.serve(w, r, key, e, resultHit, false)
			return
		}
		// Expired: revalidate by refetching (coalesced like any miss);
		// if the origin is down, fall back to the stale copy.
		fetched, res, ferr := s.fetchRouted(target, r)
		if ferr != nil {
			s.serve(w, r, key, e, resultStale, false)
			return
		}
		// The refetch superseded the stale copy; drop the reference Get
		// took on it before serving the fresh result.
		e.Release()
		if fetched.oversize {
			s.serveOversize(w, r, key, target, fetched, res)
			return
		}
		s.serve(w, r, key, fetched.entry, res, fetched.admissionRejected)
		return
	}

	fr, res, err := s.fetchRouted(target, r)
	if err != nil {
		http.Error(w, fmt.Sprintf("upstream: %v", err), http.StatusBadGateway)
		return
	}
	if fr.oversize {
		s.serveOversize(w, r, key, target, fr, res)
		return
	}
	s.serve(w, r, key, fr.entry, res, fr.admissionRejected)
}

// keySafe marks the bytes that survive url.URL.String() verbatim in a
// path: exactly the set net/url's path escaper leaves alone. A path made
// only of these bytes is its own escaped form, so appending it to
// originPrefix reproduces targetURL's key byte for byte.
var keySafe = func() (t [256]bool) {
	for c := 'a'; c <= 'z'; c++ {
		t[c] = true
	}
	for c := 'A'; c <= 'Z'; c++ {
		t[c] = true
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = true
	}
	for _, c := range []byte("-_.~$&+,/:;=@") {
		t[c] = true
	}
	return
}()

// fastKeyable reports whether the request path is byte-identical to its
// escaped form — the precondition for assembling the cache key without
// url.URL.String(). A RawPath means the wire form differed from the
// decoded path; any unsafe byte would be re-escaped by String().
func fastKeyable(u *url.URL) bool {
	p := u.Path
	if u.RawPath != "" || len(p) == 0 || p[0] != '/' {
		return false
	}
	for i := 0; i < len(p); i++ {
		if !keySafe[p[i]] {
			return false
		}
	}
	return true
}

// tryFastHit is the zero-allocation serving path: assemble the cache key
// into a pooled scratch buffer, look it up without a string conversion,
// and serve a fresh hit with pre-resolved header values. It reports false
// — having served nothing and counted nothing — when the request needs
// the general path: key not fast-assemblable, cache miss, or stale entry
// (the general path repeats the lookup; the only cost is a duplicate
// policy touch on those rare requests).
func (s *Server) tryFastHit(w http.ResponseWriter, r *http.Request) bool {
	if !fastKeyable(r.URL) {
		return false
	}
	kb := s.buffers.Get(len(s.originPrefix) + len(r.URL.Path) + 1 + len(r.URL.RawQuery))
	n := copy(kb.B, s.originPrefix)
	n += copy(kb.B[n:], r.URL.Path)
	if r.URL.RawQuery != "" {
		kb.B[n] = '?'
		n++
		n += copy(kb.B[n:], r.URL.RawQuery)
	}
	e, ok := s.store.GetBytes(kb.B[:n])
	if !ok {
		kb.Release()
		return false
	}
	if !fresh(e, s.now()) {
		e.Release()
		kb.Release()
		return false
	}
	s.serveHit(w, r, kb.B[:n], e)
	kb.Release()
	return true
}

// Pre-resolved response-header value slices: assigning a shared slice
// into the header map skips the per-request []string{v} allocation that
// Header().Set performs. They are shared across requests and must never
// be mutated.
var (
	hdrHit       = []string{"HIT"}
	hdrMiss      = []string{"MISS"}
	hdrStale     = []string{"STALE"}
	hdrPeerHit   = []string{"PEER-HIT"}
	hdrCoalesced = []string{"1"}
	hdrAdmReject = []string{"reject"}
)

// serveHit writes a fresh cache hit and settles accounting — the fast
// path's tail. keyBytes is the request key in the caller's scratch
// buffer; it is only materialized to a string when access logging needs
// it. Consumes the caller's reference on e.
func (s *Server) serveHit(w http.ResponseWriter, r *http.Request, keyBytes []byte, e *cache.Entry) {
	size := int64(len(e.Body))
	cls := e.Doc.Class

	s.metrics.requests.Inc()
	s.metrics.requestsByClass[cls].Inc()
	s.metrics.hits.Inc()
	s.metrics.hitBytes.Add(size)
	s.metrics.hitsByClass[cls].Inc()

	s.mu.Lock()
	s.stats.Requests++
	s.stats.ReqBytes += size
	s.stats.ByClass[cls].Requests++
	s.stats.Hits++
	s.stats.HitBytes += size
	s.stats.ByClass[cls].Hits++
	if s.logw != nil {
		// Access logging is best-effort; a write error must not fail the
		// request being served.
		_ = s.logw.Write(&trace.Request{
			UnixMillis:   s.now().UnixMilli(),
			URL:          string(keyBytes),
			Status:       e.Status,
			TransferSize: size,
			ContentType:  e.ContentType,
			Client:       clientAddr(r),
			Method:       http.MethodGet,
		})
		// Access logging is best-effort; a flush error must not fail the
		// request that was already served.
		_ = s.logw.Flush()
	}
	s.mu.Unlock()

	h := w.Header()
	ct, cl := e.HeaderSlices()
	if ct != nil {
		h["Content-Type"] = ct
	}
	if cl != nil {
		h["Content-Length"] = cl
	} else {
		// Entry built without the constructors (no pre-resolved values).
		h.Set("Content-Length", strconv.FormatInt(size, 10))
	}
	h["X-Cache"] = hdrHit
	w.WriteHeader(e.Status)
	_, _ = w.Write(e.Body) // client disconnects surface here; nothing to do for them
	e.Release()
}

// fresh reports whether the entry is within its freshness lifetime (an
// entry without expiry metadata never goes stale — replacement, not
// consistency, retires it, as in the paper).
func fresh(e *cache.Entry, now time.Time) bool {
	return e.Expires.IsZero() || now.Before(e.Expires)
}

// targetURL resolves the upstream URL for a request.
func (s *Server) targetURL(r *http.Request) (*url.URL, error) {
	if s.cfg.Origin != nil {
		u := *s.cfg.Origin
		u.Path = r.URL.Path
		u.RawQuery = r.URL.RawQuery
		return &u, nil
	}
	if r.URL.IsAbs() {
		return r.URL, nil
	}
	if r.Host != "" {
		u := *r.URL
		u.Scheme = "http"
		u.Host = r.Host
		return &u, nil
	}
	return nil, errors.New("proxy: relative request without Host")
}

// fetchResult is the singleflight payload: the fetched entry plus
// whether the admission filter refused to store it. The flag rides along
// so the miss leader can report the decision in its response headers.
//
// An oversize result (body larger than MaxObjectBytes) carries no entry:
// prefix holds the MaxObjectBytes+1 bytes already read and body the
// still-open remainder of the origin response. The open body can be
// consumed exactly once, so only the miss leader — the caller whose
// singleflight execution produced this result — may stream it (and must
// close it and call release, which cancels the fetch's timeout context).
// Coalesced waiters sharing the result must refetch for themselves.
type fetchResult struct {
	entry             *cache.Entry
	admissionRejected bool

	// peerHit marks a body that came out of the owning sibling's cache
	// (its response said X-Cache: HIT); consumers serve it as PEER-HIT
	// rather than a miss.
	peerHit bool

	oversize bool
	prefix   []byte
	// prefixBuf is the pooled buffer backing prefix; owned by the miss
	// leader, who releases it after streaming (coalesced waiters never
	// touch the prefix — they refetch).
	prefixBuf   *pool.Buf
	body        io.ReadCloser
	release     context.CancelFunc
	status      int
	contentType string
	contentLen  int64 // origin Content-Length; -1 when unknown
}

// doShared funnels one fetch function through the singleflight group:
// concurrent misses on the same key share a single upstream round trip
// — whether it targets the origin or a cluster sibling, since both use
// the URL as the key — and only the caller that actually executed it is
// the miss leader (shared == false).
func (s *Server) doShared(key string, fn func() (*fetchResult, error)) (*fetchResult, bool, error) {
	v, err, shared := s.fetches.DoShared(key, func() (any, error) {
		return fn()
	}, func(v any, err error, consumers int) {
		// Runs once, after the fetch and before any waiter wakes: grant
		// one body reference per consumer. The entry arrives holding the
		// creator's reference, which becomes the miss leader's; each
		// coalesced waiter gets its own, so no consumer can observe the
		// pooled body recycled under it, however late it runs.
		if err != nil {
			return
		}
		if fr := v.(*fetchResult); fr.entry != nil {
			fr.entry.AcquireN(int32(consumers - 1))
		}
	})
	if err != nil {
		return nil, shared, err
	}
	return v.(*fetchResult), shared, nil
}

// fetchShared is the plain origin-fetch path through the singleflight
// group. A follower can find itself sharing a *peer* fetch that was
// already in flight on the same key (a membership change re-routed the
// document mid-run); the result's peerHit flag keeps its label truthful.
func (s *Server) fetchShared(target *url.URL, hdr http.Header) (*fetchResult, serveResult, error) {
	fr, shared, err := s.doShared(target.String(), func() (*fetchResult, error) {
		return s.fetchWithRetry(target, hdr)
	})
	if err != nil {
		res := resultMiss
		if shared {
			res = resultCoalesced
		}
		return nil, res, err
	}
	res := resultMiss
	switch {
	case fr.peerHit:
		res = resultPeerHit
	case shared:
		res = resultCoalesced
	}
	return fr, res, nil
}

// fetchWithRetry performs the origin fetch with bounded retries and
// jittered exponential backoff, storing the result when cacheable. Only
// transport-level failures are retried; any HTTP response — whatever its
// status — is the origin's answer and is returned as-is.
func (s *Server) fetchWithRetry(target *url.URL, hdr http.Header) (*fetchResult, error) {
	var lastErr error
	for attempt := 0; attempt <= s.cfg.FetchRetries; attempt++ {
		if attempt > 0 {
			s.metrics.originRetries.Inc()
			s.sleep(backoff(s.cfg.RetryBackoff, attempt))
		}
		fr, err := s.fetchOnce(target, hdr)
		if err == nil {
			return fr, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// backoff returns the delay before the given retry attempt (1-based):
// base doubled per attempt, jittered uniformly over ±50% so synchronized
// retry waves decorrelate.
func backoff(base time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	return time.Duration((0.5 + rand.Float64()) * float64(d))
}

// fetchOnce performs one origin fetch attempt under the per-attempt
// timeout and caches the response when it is cacheable under the paper's
// rules. The context is detached from any client request: the result is
// shared by every coalesced waiter.
func (s *Server) fetchOnce(target *url.URL, hdr http.Header) (*fetchResult, error) {
	// The timeout context cannot be cancelled with a blanket defer: an
	// oversize response leaves fetchOnce with the body still open, and
	// cancelling here would abort the remainder the miss leader is about
	// to stream. Each exit settles the context (and body) explicitly;
	// the oversize path hands both off inside the fetchResult.
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.FetchTimeout)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target.String(), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header = hdr.Clone()
	fetchStart := s.now()
	resp, err := s.transport.RoundTrip(req)
	if err != nil {
		cancel()
		s.metrics.originErrors.Inc()
		return nil, err
	}
	buf, n, readErr := s.readBody(resp)
	if readErr != nil {
		buf.Release()
		// The read already failed; a close failure has nothing to add.
		_ = resp.Body.Close()
		cancel()
		s.metrics.originErrors.Inc()
		return nil, readErr
	}
	now := s.now()
	s.metrics.originSeconds.Observe(now.Sub(fetchStart).Seconds())
	s.metrics.originBytes.Add(int64(n))
	key := target.String()
	if int64(n) > s.cfg.MaxObjectBytes {
		// The limited read ran one byte past the cacheable bound: the
		// document does not fit the cache, but the client must still get
		// every byte. Ship the prefix plus the open remainder to the miss
		// leader; serving a truncated body here was the bug this path
		// replaces.
		s.metrics.uncacheableOversize.Inc()
		return &fetchResult{
			oversize:    true,
			prefix:      buf.B[:n],
			prefixBuf:   buf,
			body:        resp.Body,
			release:     cancel,
			status:      resp.StatusCode,
			contentType: resp.Header.Get("Content-Type"),
			contentLen:  resp.ContentLength,
		}, nil
	}
	// The body was read to EOF; a close failure has nothing left to
	// corrupt.
	_ = resp.Body.Close()
	cancel()
	s.metrics.objectBytes.Observe(float64(n))
	e := newBodyEntry(s, key, buf, n, resp, now)
	fr := &fetchResult{entry: e}
	if s.cacheable(key, resp, int64(n)) {
		switch s.store.Insert(key, e) {
		case cache.SetStored:
			// Without a filter nothing was decided, so nothing is counted.
			if s.cfg.Admission.New != nil {
				s.metrics.admissionAdmitted.Inc()
			}
		case cache.SetRejectedAdmission:
			fr.admissionRejected = true
			s.metrics.admissionRejected.Inc()
		case cache.SetRejectedBudget:
			s.metrics.cacheRejects.Inc()
		}
	} else {
		s.metrics.uncacheableRules.Inc()
	}
	return fr, nil
}

// newBodyEntry materializes an upstream response body as a pooled,
// refcounted cache entry — the shared tail of the origin and peer fetch
// paths. Inserting it into the store (or not: peer-fetched bodies are
// served but never stored) is the caller's decision.
func newBodyEntry(s *Server, key string, buf *pool.Buf, n int, resp *http.Response, now time.Time) *cache.Entry {
	return cache.NewPooledEntry(
		&policy.Doc{
			Key:   key,
			Size:  int64(n),
			Class: doctype.Classify(resp.Header.Get("Content-Type"), key),
		},
		buf, n,
		resp.Header.Get("Content-Type"),
		resp.StatusCode,
		expiry(resp.Header, now),
	)
}

// readBody reads the origin response body into a pooled buffer, up to
// MaxObjectBytes+1 bytes — one past the cacheable bound, so the caller
// can distinguish "fits" from "oversize" exactly as the old
// io.ReadAll(io.LimitReader(...)) did, but without its grow-by-copy
// garbage: the buffer steps through pool classes (each step recycling
// its predecessor) and is sized up front when the origin declares a
// Content-Length. The returned buffer is always non-nil; on a read error
// the caller releases it.
func (s *Server) readBody(resp *http.Response) (*pool.Buf, int, error) {
	limit := int(s.cfg.MaxObjectBytes) + 1
	want := 32 << 10
	if cl := resp.ContentLength; cl >= 0 && cl+1 < int64(want) {
		// +1 leaves room for the EOF-detecting read past the declared
		// length without a grow step.
		want = int(cl) + 1
	}
	if want > limit {
		want = limit
	}
	buf := s.buffers.Get(want)
	n := 0
	for n < limit {
		if n == len(buf.B) {
			buf = s.buffers.Grow(buf, n, min(2*n, limit))
		}
		end := min(len(buf.B), limit)
		m, err := resp.Body.Read(buf.B[n:end])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf, n, err
		}
	}
	return buf, n, nil
}

// expiry derives an entry's freshness deadline from Cache-Control max-age
// (s-maxage preferred, as for a shared cache) or the Expires header. The
// zero time means "never stale".
func expiry(h http.Header, now time.Time) time.Time {
	cc := h.Get("Cache-Control")
	if cc != "" {
		if secs, ok := maxAge(cc, "s-maxage"); ok {
			return now.Add(time.Duration(secs) * time.Second)
		}
		if secs, ok := maxAge(cc, "max-age"); ok {
			return now.Add(time.Duration(secs) * time.Second)
		}
	}
	if exp := h.Get("Expires"); exp != "" {
		if t, err := http.ParseTime(exp); err == nil {
			return t
		}
	}
	return time.Time{}
}

// maxAge extracts a non-negative `directive=N` seconds value from a
// Cache-Control header.
func maxAge(cc, directive string) (int64, bool) {
	for _, part := range strings.Split(cc, ",") {
		part = strings.TrimSpace(part)
		rest, ok := cutPrefixFold(part, directive)
		if !ok || !strings.HasPrefix(rest, "=") {
			continue
		}
		secs, err := strconv.ParseInt(strings.TrimSpace(rest[1:]), 10, 64)
		if err != nil || secs < 0 {
			return 0, false
		}
		return secs, true
	}
	return 0, false
}

// cutPrefixFold is strings.CutPrefix under ASCII case folding.
func cutPrefixFold(s, prefix string) (string, bool) {
	if len(s) < len(prefix) || !strings.EqualFold(s[:len(prefix)], prefix) {
		return s, false
	}
	return s[len(prefix):], true
}

// cacheable applies the Section 2 preprocessing rules plus no-store.
func (s *Server) cacheable(urlStr string, resp *http.Response, size int64) bool {
	if !trace.CacheableStatus(resp.StatusCode) {
		return false
	}
	if trace.UncacheableURL(urlStr) {
		return false
	}
	if size > s.cfg.MaxObjectBytes || size > s.cfg.Capacity {
		return false
	}
	cc := resp.Header.Get("Cache-Control")
	if cc != "" && (containsToken(cc, "no-store") || containsToken(cc, "private")) {
		return false
	}
	return true
}

func containsToken(header, token string) bool {
	for _, part := range strings.Split(header, ",") {
		if strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
	}
	return false
}

// serve writes the response and settles accounting and logging.
// admRejected reports that this request's own origin fetch produced a
// cacheable response the admission filter refused; it is surfaced as an
// X-Admission header on miss-leader responses only, so load generators
// can reconcile header counts with wcproxy_admission_rejected_total.
// serve consumes the caller's reference on e: every path that reaches it
// holds exactly one (Get/GetBytes acquired it, or the singleflight
// prepare hook granted it), and serve releases it after the body is
// written.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, key string, e *cache.Entry, res serveResult, admRejected bool) {
	size := int64(len(e.Body))
	cls := e.Doc.Class

	s.metrics.requests.Inc()
	s.metrics.requestsByClass[cls].Inc()
	switch res {
	case resultHit:
		s.metrics.hits.Inc()
		s.metrics.hitBytes.Add(size)
		s.metrics.hitsByClass[cls].Inc()
	case resultPeerHit:
		// Neither a local hit (the bytes are a sibling's) nor a miss (no
		// origin traffic): requests = hits + peer hits + misses. Class
		// hits stay local-only — they are what the sim/live parity
		// harness reconciles against each node's own cache.
		s.metrics.peerHits.Inc()
	case resultCoalesced:
		s.metrics.misses.Inc()
		s.metrics.coalesced.Inc()
	case resultStale:
		s.metrics.misses.Inc()
		s.metrics.staleServed.Inc()
	default:
		s.metrics.misses.Inc()
	}

	s.mu.Lock()
	s.stats.Requests++
	s.stats.ReqBytes += size
	s.stats.ByClass[cls].Requests++
	switch res {
	case resultHit:
		s.stats.Hits++
		s.stats.HitBytes += size
		s.stats.ByClass[cls].Hits++
	case resultPeerHit:
		s.stats.PeerHits++
	case resultCoalesced:
		s.stats.Coalesced++
	case resultStale:
		s.stats.StaleServed++
	}
	if s.logw != nil {
		// The access log records what the trace pipeline consumes; the
		// simulator ignores Squid's action field, so TCP_MISS (the
		// writer's fixed action) is sufficient.
		_ = s.logw.Write(&trace.Request{
			UnixMillis:   s.now().UnixMilli(),
			URL:          key,
			Status:       e.Status,
			TransferSize: size,
			ContentType:  e.ContentType,
			Client:       clientAddr(r),
			Method:       http.MethodGet,
		})
		// Access logging is best-effort; a flush error must not fail the
		// request that was already served.
		_ = s.logw.Flush()
	}
	s.mu.Unlock()

	h := w.Header()
	ct, cl := e.HeaderSlices()
	if ct != nil {
		h["Content-Type"] = ct
	} else if e.ContentType != "" {
		h.Set("Content-Type", e.ContentType)
	}
	if cl != nil {
		h["Content-Length"] = cl
	} else {
		h.Set("Content-Length", strconv.FormatInt(size, 10))
	}
	switch res {
	case resultHit:
		h["X-Cache"] = hdrHit
	case resultPeerHit:
		h["X-Cache"] = hdrPeerHit
	case resultStale:
		h["X-Cache"] = hdrStale
	case resultCoalesced:
		h["X-Cache"] = hdrMiss
		h["X-Coalesced"] = hdrCoalesced
	default:
		h["X-Cache"] = hdrMiss
	}
	if admRejected && res == resultMiss {
		h["X-Admission"] = hdrAdmReject
	}
	w.WriteHeader(e.Status)
	_, _ = w.Write(e.Body) // client disconnects surface here; nothing to do for them
	e.Release()
}

// serveOversize answers a request whose origin body exceeded
// MaxObjectBytes: the full body is streamed through to the client,
// nothing is cached, and the request is accounted as a miss with the
// bytes actually streamed. The miss leader consumes the open body carried
// in the fetchResult; a coalesced waiter cannot (a stream is consumed
// exactly once), so it performs its own uncoalesced fetch and streams
// that instead — and is logged with the status its own fetch produced,
// which need not be the leader's.
func (s *Server) serveOversize(w http.ResponseWriter, r *http.Request, key string, target *url.URL, fr *fetchResult, res serveResult) {
	cls := doctype.Classify(fr.contentType, key)
	status := fr.status
	var streamed int64
	if res == resultMiss {
		streamed = s.streamOversizeBody(w, fr)
	} else {
		streamed, status = s.streamOversizeRefetch(w, target, r.Header)
	}

	s.metrics.requests.Inc()
	s.metrics.requestsByClass[cls].Inc()
	s.metrics.misses.Inc()
	if res == resultCoalesced {
		s.metrics.coalesced.Inc()
	}

	s.mu.Lock()
	s.stats.Requests++
	s.stats.ReqBytes += streamed
	s.stats.ByClass[cls].Requests++
	if res == resultCoalesced {
		s.stats.Coalesced++
	}
	if s.logw != nil {
		// Same trace record the cached path logs, with the streamed byte
		// count as the transfer size.
		_ = s.logw.Write(&trace.Request{
			UnixMillis:   s.now().UnixMilli(),
			URL:          key,
			Status:       status,
			TransferSize: streamed,
			ContentType:  fr.contentType,
			Client:       clientAddr(r),
			Method:       http.MethodGet,
		})
		// Access logging is best-effort; a flush error must not fail the
		// request that was already served.
		_ = s.logw.Flush()
	}
	s.mu.Unlock()
}

// streamOversizeBody writes the buffered prefix and pipes the rest of the
// still-open origin body through to the client, returning the bytes
// delivered. It settles the body and the fetch's timeout context.
func (s *Server) streamOversizeBody(w http.ResponseWriter, fr *fetchResult) int64 {
	defer func() {
		// Whatever the copy below managed, the remainder's ownership ends
		// here: close the origin stream, release its timeout context, and
		// return the prefix's pooled buffer.
		_ = fr.body.Close()
		fr.release()
		fr.prefix = nil
		fr.prefixBuf.Release()
	}()
	if fr.contentType != "" {
		w.Header().Set("Content-Type", fr.contentType)
	}
	if fr.contentLen >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(fr.contentLen, 10))
	}
	w.Header().Set("X-Cache", "MISS")
	w.WriteHeader(fr.status)
	n, err := w.Write(fr.prefix)
	total := int64(n)
	if err != nil {
		return total // client went away mid-stream; nothing more to do
	}
	m, err := io.Copy(w, fr.body)
	total += m
	s.metrics.originBytes.Add(m) // the prefix was counted at fetch time
	if err != nil {
		s.metrics.originErrors.Inc()
	}
	return total
}

// streamOversizeRefetch is the coalesced waiter's path for an oversize
// result: the shared body belongs to the miss leader, so the waiter
// fetches the URL again — without singleflight, straight to the client,
// nothing buffered beyond the transport — and returns the bytes
// delivered and the status written to the client.
func (s *Server) streamOversizeRefetch(w http.ResponseWriter, target *url.URL, hdr http.Header) (int64, int) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target.String(), nil)
	if err != nil {
		http.Error(w, fmt.Sprintf("upstream: %v", err), http.StatusBadGateway)
		return 0, http.StatusBadGateway
	}
	req.Header = hdr.Clone()
	resp, err := s.transport.RoundTrip(req)
	if err != nil {
		s.metrics.originErrors.Inc()
		http.Error(w, fmt.Sprintf("upstream: %v", err), http.StatusBadGateway)
		return 0, http.StatusBadGateway
	}
	defer func() {
		// The copy below drains the body; a close failure afterwards has
		// nothing left to corrupt.
		_ = resp.Body.Close()
	}()
	s.metrics.uncacheableOversize.Inc()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.Header().Set("X-Cache", "MISS")
	w.WriteHeader(resp.StatusCode)
	n, err := io.Copy(w, resp.Body)
	s.metrics.originBytes.Add(n)
	if err != nil {
		s.metrics.originErrors.Inc()
	}
	return n, resp.StatusCode
}

func clientAddr(r *http.Request) string {
	if r.RemoteAddr == "" {
		return "-"
	}
	return r.RemoteAddr
}
