// Package proxy implements a working HTTP caching proxy on top of the
// replacement-policy engine — the system the simulator models. It serves
// both as a live demonstration of the policies and as a trace source: the
// proxy emits Squid-native access logs that feed straight back into the
// trace parser, characterization, and simulator.
//
// Every request runs one pipeline (ServeHTTP): key → lookup → route →
// fetch → admit+store → write → account; a fresh hit is that pipeline
// with route, fetch and store skipped, and allocates nothing. Objects
// live in a sharded store (internal/cache) whose per-shard locks keep
// lookups on distinct URLs from contending, concurrent misses on one URL
// collapse into a single upstream fetch (internal/flight), and the origin
// fetch is hardened — per-attempt timeout, bounded retries with jittered
// exponential backoff, and a stale-on-error fallback that serves an
// expired cached copy when the origin is unreachable. No lock is held
// across an upstream round trip, and the one process-wide lock, around
// the access-log writer, is taken only when an access log is configured.
// See docs/PROXY.md for the stages and the design.
//
// The proxy applies the same cacheability rules the paper's preprocessing
// assumes (GET only, the Section 2 status-code whitelist, the CGI/query
// heuristics) plus Cache-Control: no-store, and never stores a response
// fetched with a client's Authorization (RFC 9111 §3.5). Expiration is
// honored only as far as stale-on-error needs it: an entry past its
// max-age/Expires is revalidated by refetching — always whole and
// unconditional, whatever the client sent — and served anyway if the
// origin is down. Full consistency protocols remain out of scope, as in
// the paper.
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
	"time"

	"webcachesim/internal/cache"
	"webcachesim/internal/cluster"
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
	// eviction order. Each victim comes from the shard holding the most
	// bytes, which keeps every study scheme's hit ratio at 0.95 or more
	// of one shard's (docs/PROXY.md, "The sharded store").
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
	// Cluster, when set, makes this proxy one node of a consistent-hash
	// fleet: a local miss on a document another node owns consults that
	// sibling before the origin (Squid's cache_peer sibling relationship,
	// with hash routing instead of ICP). Requires Origin (reverse mode).
	// See ClusterConfig and docs/CLUSTER.md.
	Cluster *ClusterConfig
	// Transport performs upstream fetches; http.DefaultTransport when
	// nil. A transport whose Proxy names another HTTP proxy fetches
	// through it — Squid's cache_peer parent relationship; chaining two
	// Servers this way forms a live two-level cache hierarchy.
	Transport http.RoundTripper
	// AccessLog, when set, receives Squid-native log lines: buffered,
	// written out within a second and by Close.
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

// serveResult classifies how a request was answered, for headers and
// accounting. Requests = hits + peer hits + misses; coalesced and
// stale-served are sub-categories of miss.
type serveResult int

const (
	resultHit       serveResult = iota // fresh copy served from cache
	resultMiss                         // fetched upstream by this request
	resultCoalesced                    // shared another request's upstream fetch
	resultStale                        // origin down; expired copy served
	resultPeerHit                      // served from the owning sibling's cache
)

// outcome is what one served response amounted to. The write stage fills
// it in and hands it by value to account, the pipeline's one exit: every
// response that reaches a client with an X-Cache header passes through it
// exactly once.
type outcome struct {
	result      serveResult
	status      int
	bytes       int64 // body bytes delivered to the client
	class       doctype.Class
	contentType string
	// admRejected marks a miss leader whose own fetch produced a cacheable
	// response the admission filter refused; surfaced as X-Admission so
	// load generators can reconcile header counts with
	// wcproxy_admission_rejected_total.
	admRejected bool
}

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
	// membership is fixed at start, so it is set once in New. Peer
	// fetches use their own transport and timeout: s.transport may lead
	// through a parent proxy, but sibling traffic must go direct.
	cluster       *clusterState
	peerTransport http.RoundTripper
	peerTimeout   time.Duration

	// originPrefix, when non-nil, is the byte-exact "scheme://host" prefix
	// every reverse-proxy cache key starts with — the key stage appends
	// the request's path and query to it in a pooled scratch buffer
	// instead of building a url.URL and calling String(). nil when that
	// cannot guarantee byte-identity with targetURL (forward mode, or an
	// origin URL whose String() is not prefix-shaped).
	originPrefix []byte

	// logw is the access-log writer, nil without Config.AccessLog; logMu
	// serializes its writes and flushes and guards nothing else (but
	// logPending, set while a flush is scheduled), so a proxy run without
	// an access log takes no process-wide lock per request.
	logMu      sync.Mutex
	logw       *trace.SquidWriter
	logPending bool

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
		s.cluster = cs
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
		// path and query. If it does, the key stage can assemble keys as
		// prefix+path[+?query] without allocating; if not (ForceQuery, a
		// fragment, an opaque origin, ...), every key is the general
		// targetURL(r).String(). Byte-identity between the two forms is
		// what makes the fast one safe: both address one cache namespace.
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
	})
	if err != nil {
		return nil, fmt.Errorf("proxy: %w", err)
	}
	s.store = store
	s.registerFuncs(reg)
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

// logFlushEvery is how long an access-log line may wait in the buffer.
// A write per line cost serve_churn's shape ~10 % of its throughput
// (docs/PROXY.md, "The access log").
const logFlushEvery = time.Second

func (s *Server) flushLog() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.logPending = false
	return s.logw.Flush()
}

// Close writes out the access log's buffered lines; call it once the
// http.Server in front has shut down, before closing Config.AccessLog.
// Without an access log it does nothing.
func (s *Server) Close() error {
	if s.logw == nil {
		return nil
	}
	return s.flushLog()
}

// Used returns the current cache occupancy in bytes.
func (s *Server) Used() int64 { return s.store.Used() }

// Len returns the number of cached objects.
func (s *Server) Len() int { return s.store.Len() }

// Shards returns the cache shard count.
func (s *Server) Shards() int { return s.store.Shards() }

// ServeHTTP implements http.Handler. It is the request pipeline —
//
//	key → lookup → route → fetch → admit+store → write → account
//
// — which a fresh hit leaves after lookup for the write stage. The only
// responses that bypass write and account are the error answers without
// an X-Cache header: 405, 400, and the 502 of a failed upstream fetch
// with no stale copy to fall back on.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "proxy caches GET only", http.StatusMethodNotAllowed)
		return
	}
	k, err := s.requestKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer k.scratch.Release()

	// The request's one lookup, hence one policy hit and admission touch
	// per resident document. Its reference is this function's until handed
	// to serveEntry or, superseded by a refetch, released below.
	e, cached := s.store.GetBytes(k.bytes)
	if cached && fresh(e, s.now()) {
		s.serveEntry(w, r, &k, e, resultHit, false)
		return
	}

	// A miss, or an expired entry revalidated by refetching (coalesced
	// like any miss); if the origin is down the expired copy still serves.
	fr, res, err := s.fetch(k.String(), r)
	if cached {
		if err != nil {
			s.serveEntry(w, r, &k, e, resultStale, false)
			return
		}
		e.Release()
	}
	switch {
	case err != nil:
		http.Error(w, fmt.Sprintf("upstream: %v", err), http.StatusBadGateway)
	case fr.oversize:
		s.serveOversize(w, r, &k, fr, res)
	default:
		s.serveEntry(w, r, &k, fr.entry, res, fr.admissionRejected)
	}
}

// requestKey is the key stage's product: the cache key in a pooled scratch
// buffer, which the lookup hashes without a string conversion. The string
// form is built at most once, by the first stage that needs it — a fetch
// or the access log.
type requestKey struct {
	scratch *pool.Buf
	bytes   []byte // the key, backed by scratch
	str     string // the same key as a string; "" until String is called
}

func (k *requestKey) String() string {
	if k.str == "" {
		k.str = string(k.bytes)
	}
	return k.str
}

// requestKey is the key stage. A reverse proxy with prefix-shaped keys
// (originPrefix) appends a fastKeyable request's path and query to the
// prefix, allocating nothing; any other request uses its upstream URL's
// String(). The two forms are byte-identical for the same request
// (FuzzRequestKey), so they address one cache namespace.
func (s *Server) requestKey(r *http.Request) (requestKey, error) {
	if u := r.URL; s.originPrefix != nil && fastKeyable(u) {
		kb := s.buffers.Get(len(s.originPrefix) + len(u.Path) + 1 + len(u.RawQuery))
		b := append(kb.B[:0], s.originPrefix...)
		b = append(b, u.Path...)
		if u.RawQuery != "" {
			b = append(b, '?')
			b = append(b, u.RawQuery...)
		}
		return requestKey{scratch: kb, bytes: b}, nil
	}
	target, err := s.targetURL(r)
	if err != nil {
		return requestKey{}, err
	}
	str := target.String()
	kb := s.buffers.Get(len(str))
	return requestKey{scratch: kb, bytes: append(kb.B[:0], str...), str: str}, nil
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

// targetURL resolves the upstream URL for a request.
func (s *Server) targetURL(r *http.Request) (*url.URL, error) {
	if s.cfg.Origin != nil {
		u := *s.cfg.Origin
		// The origin's own RawPath must go with its Path, or String()
		// would prefer it for the one request whose path it decodes to.
		u.Path, u.RawPath = r.URL.Path, ""
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

// fresh reports whether the entry is within its freshness lifetime (an
// entry without expiry metadata never goes stale — replacement, not
// consistency, retires it, as in the paper).
func fresh(e *cache.Entry, now time.Time) bool {
	return e.Expires.IsZero() || now.Before(e.Expires)
}

// fetchResult is the singleflight payload: the fetched entry plus
// whether the admission filter refused to store it. The flag rides along
// so the miss leader can report the decision in its response headers.
//
// An oversize result (body larger than MaxObjectBytes) carries no entry:
// prefix holds what was already read (the MaxObjectBytes+1 bytes that
// found an undeclared length out; nothing when Content-Length said so)
// and resp the upstream response, body still open. The open body can be
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
	prefix   *pool.Buf // B trimmed to the bytes read; the streamer releases it
	resp     *http.Response
	release  context.CancelFunc
}

// fetch is the route and fetch stages: on a clustered proxy a document
// another node owns is asked of that sibling first, falling back to the
// origin if the peer is down, slow, or answers with anything but an
// authoritative proxy response; unclustered proxies, peer-issued requests
// (the loop guard) and self-owned documents go straight to the origin.
// A request with credentials goes there too, alone and uncoalesced.
func (s *Server) fetch(key string, r *http.Request) (*fetchResult, serveResult, error) {
	if r.Header.Get("Authorization") != "" {
		// RFC 9111 §3.5: a response fetched with a client's credentials is
		// that client's alone. It is never stored, nor shared with a
		// coalesced waiter, nor asked of a sibling that would store it.
		fr, err := s.fetchOrigin(key, r.Header, true)
		return fr, resultMiss, err
	}
	if cs := s.cluster; cs != nil && r.Header.Get(PeerHeader) == "" {
		target, err := s.targetURL(r)
		if err != nil {
			return nil, resultMiss, err
		}
		if owner := cs.ring.Owner(cluster.RouteKeyURL(target)); owner != cs.self {
			fr, res, err := s.fetchShared(key, func() (*fetchResult, error) {
				return s.fetchPeer(key, target, cs.peers[owner], cs.self, r.Header)
			})
			if err == nil {
				return fr, res, nil
			}
			// The peer path failed for this whole miss group; every member
			// falls back to a (re-coalesced) origin fetch on the same key.
		}
	}
	return s.fetchShared(key, func() (*fetchResult, error) {
		return s.fetchOrigin(key, r.Header, false)
	})
}

// fetchShared funnels one fetch through the singleflight group and labels
// the caller's share of it. Origin and peer fetches use the same key — the
// document's URL — so concurrent misses on one URL collapse into a single
// upstream round trip however each was routed: membership is fixed at
// start, yet a peer-guarded request and a routed one, or a failed peer
// fetch's origin fallback, reach one document by different routes. The
// label therefore comes from the result, not the route: a body out of a
// sibling's cache is a peer hit for every consumer; otherwise the caller
// that ran the fetch is the miss leader and the rest are coalesced,
// keeping Coalesced a subset of Misses.
func (s *Server) fetchShared(key string, fn func() (*fetchResult, error)) (*fetchResult, serveResult, error) {
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
		return nil, resultMiss, err
	}
	fr := v.(*fetchResult)
	switch {
	case fr.peerHit:
		return fr, resultPeerHit, nil
	case shared:
		return fr, resultCoalesced, nil
	}
	return fr, resultMiss, nil
}

// fetchOrigin performs the origin fetch with bounded retries and jittered
// exponential backoff. Only transport-level failures are retried; any
// HTTP response — whatever its status — is the origin's answer and is
// returned as-is. A private fetch is never stored (see fetchOnce).
func (s *Server) fetchOrigin(key string, hdr http.Header, private bool) (*fetchResult, error) {
	var lastErr error
	for attempt := 0; attempt <= s.cfg.FetchRetries; attempt++ {
		if attempt > 0 {
			s.metrics.originRetries.Inc()
			s.sleep(backoff(s.cfg.RetryBackoff, attempt))
		}
		fr, err := s.fetchOnce(key, hdr, private)
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

// fetchOnce performs one origin fetch attempt and runs the admit+store
// stage on what it brings back, unless the fetch is private: then a body
// that fits is counted uncacheable for its authorization and only served.
func (s *Server) fetchOnce(key string, hdr http.Header, private bool) (*fetchResult, error) {
	start := s.now()
	resp, cancel, err := s.roundTrip(s.transport, s.cfg.FetchTimeout, key, hdr, "")
	var fr *fetchResult
	if err == nil {
		fr, err = s.readResponse(key, resp, cancel)
	}
	if err != nil {
		s.metrics.originErrors.Inc()
		return nil, err
	}
	s.metrics.originSeconds.Observe(s.now().Sub(start).Seconds())
	if fr.oversize {
		// The remainder is counted as it streams.
		s.metrics.originBytes.Add(int64(len(fr.prefix.B)))
		return fr, nil
	}
	size := fr.entry.Doc.Size
	s.metrics.originBytes.Add(size)
	s.metrics.objectBytes.Observe(float64(size))
	if private {
		s.metrics.uncacheableAuthorization.Inc()
		return fr, nil
	}
	s.admitAndStore(key, fr, resp)
	return fr, nil
}

// perClientHeaders make a response partial, conditional or encoded for
// what one client holds or accepts. No upstream fetch may carry them: its
// result is stored under the full-document key, handed to every coalesced
// waiter and served with no Content-Encoding, so it must be the whole
// document as identity bytes. A client that sent Range gets the complete
// 200, which a server may always answer; net/http's transport negotiates
// gzip itself, and decodes it, only when the request names no encoding.
var perClientHeaders = [...]string{
	"Range", "If-Range", "If-Match", "If-None-Match", "If-Modified-Since", "If-Unmodified-Since", "Accept-Encoding",
}

// roundTrip builds and sends every upstream request — to the origin, to a
// sibling (peerSelf names this node), for an oversize waiter's refetch —
// under its own timeout, on a context detached from the client request:
// the result is shared by every coalesced waiter, so it must not die with
// the first client that disconnects. The client's headers are forwarded
// minus perClientHeaders, and the fleet-internal loop guard is set on
// sibling traffic and never reaches the origin. On success the caller owns
// the response body and the returned cancel; readResponse settles both.
func (s *Server) roundTrip(rt http.RoundTripper, timeout time.Duration, rawURL string, client http.Header, peerSelf string) (*http.Response, context.CancelFunc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	req.Header = client.Clone()
	for _, name := range perClientHeaders {
		req.Header.Del(name)
	}
	req.Header.Del(PeerHeader)
	if peerSelf != "" {
		req.Header.Set(PeerHeader, peerSelf)
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return resp, cancel, nil
}

// readResponse materialises an upstream body, whoever sent it. One within
// MaxObjectBytes becomes a pooled, refcounted entry holding the creator's
// reference, and the response and its timeout context are settled here;
// storing it (or not: peer-fetched bodies are served, never stored) is
// the caller's decision. A larger one does not fit the cache, but the
// client must still get every byte: the prefix, the open response and the
// cancel — which must not fire before the stream ends — are handed off to
// whoever streams them (serveOversize).
func (s *Server) readResponse(key string, resp *http.Response, cancel context.CancelFunc) (*fetchResult, error) {
	if resp.ContentLength > s.cfg.MaxObjectBytes {
		// Declared oversize: nothing to probe for and nothing to hold back
		// from the client — the hand-off's prefix is empty.
		s.metrics.uncacheableOversize.Inc()
		return &fetchResult{oversize: true, prefix: new(pool.Buf), resp: resp, release: cancel}, nil
	}
	buf, n, err := s.readBody(resp)
	if err != nil {
		buf.Release()
		// The read already failed; a close failure has nothing to add.
		_ = resp.Body.Close()
		cancel()
		return nil, err
	}
	if int64(n) > s.cfg.MaxObjectBytes {
		s.metrics.uncacheableOversize.Inc()
		buf.B = buf.B[:n]
		return &fetchResult{oversize: true, prefix: buf, resp: resp, release: cancel}, nil
	}
	contentType := resp.Header.Get("Content-Type")
	// The body was read to EOF; a close failure has nothing left to
	// corrupt.
	_ = resp.Body.Close()
	cancel()
	return &fetchResult{entry: cache.NewPooledEntry(
		&policy.Doc{Key: key, Size: int64(n), Class: doctype.Classify(contentType, key)},
		buf, n, contentType, resp.StatusCode, expiry(resp.Header, s.now()),
	)}, nil
}

// readBody reads an upstream body into a pooled buffer, up to
// MaxObjectBytes+1 bytes — one past the cacheable bound, so the caller
// can tell "fits" from an oversize body of undeclared length (a declared
// one never gets here). A declared Content-Length sizes the buffer once:
// net/http delivers no byte past it, so the body takes exactly the slot
// its length names. Only an undeclared length (chunked) starts at 32 KiB
// and steps through pool classes, each step recycling its predecessor.
// The returned buffer is always non-nil; on a read error the caller
// releases it.
func (s *Server) readBody(resp *http.Response) (*pool.Buf, int, error) {
	limit := int(s.cfg.MaxObjectBytes) + 1
	want := min(32<<10, limit)
	if cl := resp.ContentLength; cl >= 0 {
		// +1 leaves room for the EOF-detecting read past the declared
		// length without a grow step.
		want = int(cl) + 1
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
// zero time means "never stale"; an Expires that is not a date means
// "already expired" (RFC 9111 §5.3).
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
		return now // stale from the start: fresh needs now before Expires
	}
	return time.Time{}
}

// maxDeltaSeconds is where RFC 9111 §1.2.2 clamps a delta-seconds value;
// 2³¹ s fits a time.Duration, a larger count overflows it into the past.
const maxDeltaSeconds = 1 << 31

// maxAge extracts a non-negative `directive=N` seconds value from a
// Cache-Control header, clamped at maxDeltaSeconds. N may be quoted
// (`max-age="60"`), which RFC 9111 §5.2 asks recipients to accept.
func maxAge(cc, directive string) (int64, bool) {
	for _, part := range strings.Split(cc, ",") {
		part = strings.TrimSpace(part)
		rest, ok := cutPrefixFold(part, directive)
		if !ok || !strings.HasPrefix(rest, "=") {
			continue
		}
		v := strings.TrimSpace(rest[1:])
		if len(v) >= 2 && v[0] == '"' && v[len(v)-1] == '"' {
			v = v[1 : len(v)-1]
		}
		secs, err := strconv.ParseInt(v, 10, 64)
		if errors.Is(err, strconv.ErrRange) && secs > 0 {
			err = nil // more digits than int64 holds: clamped below
		}
		if err != nil || secs < 0 {
			return 0, false
		}
		return min(secs, maxDeltaSeconds), true
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

// admitAndStore is the admit+store stage: a fetched origin body enters the
// cache when the paper's rules allow it, the admission filter (if any)
// lets it displace a resident object, and the byte budget can take it.
// Whatever is decided, the body is still served.
func (s *Server) admitAndStore(key string, fr *fetchResult, resp *http.Response) {
	if !s.cacheable(key, resp, fr.entry.Doc.Size) {
		s.metrics.uncacheableRules.Inc()
		return
	}
	// The store counts its own decisions (registerFuncs exports them).
	if s.store.Insert(key, fr.entry) == cache.SetRejectedAdmission {
		fr.admissionRejected = true
	}
}

// cacheable applies the Section 2 preprocessing rules plus no-store, and
// refuses a response that varies by a request header: the store keys on
// the URL alone, so it would serve one client's variant to every other.
// Vary: Accept-Encoding alone is safe, since perClientHeaders strips that
// header upstream and the stored body is always identity.
func (s *Server) cacheable(urlStr string, resp *http.Response, size int64) bool {
	if !trace.CacheableStatus(resp.StatusCode) {
		return false
	}
	if trace.UncacheableURL(urlStr) {
		return false
	}
	if size > s.cfg.Capacity {
		return false
	}
	cc := resp.Header.Get("Cache-Control")
	if cc != "" && (containsToken(cc, "no-store") || containsToken(cc, "private")) {
		return false
	}
	for _, vary := range resp.Header.Values("Vary") {
		for _, name := range strings.Split(vary, ",") {
			if name = strings.TrimSpace(name); name != "" && !strings.EqualFold(name, "Accept-Encoding") {
				return false
			}
		}
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

// serveEntry is the write stage for a buffered body: a hit, a stale copy,
// or an entry a fetch just produced. It consumes the caller's reference on
// e — the lookup acquired it, or the singleflight prepare hook granted it
// — releasing it after the body is written.
func (s *Server) serveEntry(w http.ResponseWriter, r *http.Request, k *requestKey, e *cache.Entry, res serveResult, admRejected bool) {
	out := outcome{
		result:      res,
		status:      e.Status,
		bytes:       int64(len(e.Body)),
		class:       e.Doc.Class,
		contentType: e.ContentType,
		// The flag is the fetch's, shared with every coalesced waiter; only
		// the leader reports it, once per counted rejection.
		admRejected: admRejected && res == resultMiss,
	}
	// Account before writing: a client holding its complete response must
	// find it counted — reconciliation scrapes right after its last read.
	s.account(r, k, out)
	h := w.Header()
	// The entry's pre-resolved value slices go straight into the header
	// map, skipping the []string{v} allocation of Header().Set.
	ct, cl := e.HeaderSlices()
	if ct != nil {
		h["Content-Type"] = ct
	}
	h["Content-Length"] = cl
	setCacheHeaders(h, out)
	w.WriteHeader(e.Status)
	_, _ = w.Write(e.Body) // client disconnects surface here; nothing to do for them
	e.Release()
}

// setCacheHeaders labels a response with how it was served — what wcload
// tallies client-side and reconciles against /metrics.
func setCacheHeaders(h http.Header, out outcome) {
	switch out.result {
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
	if out.admRejected {
		h["X-Admission"] = hdrAdmReject
	}
}

// serveOversize is the write stage for a body that exceeded
// MaxObjectBytes: it is streamed through complete, nothing is cached, and
// the request is accounted a miss with the bytes actually delivered —
// known only when the stream ends, so here account follows the write. The
// miss leader streams the open body its fetch handed over. A coalesced
// waiter cannot (a stream is consumed exactly once), so it first fetches
// again for itself, unshared, and is answered and logged with what its
// own fetch produced, which need not be what the leader's did.
func (s *Server) serveOversize(w http.ResponseWriter, r *http.Request, k *requestKey, fr *fetchResult, res serveResult) {
	if res != resultMiss {
		own, err := s.fetchOnce(k.String(), r.Header, false)
		if err != nil {
			// Unlike a failed shared fetch this 502 is accounted and logged:
			// the request already belongs to an answered miss group.
			http.Error(w, fmt.Sprintf("upstream: %v", err), http.StatusBadGateway)
			s.account(r, k, outcome{result: res, status: http.StatusBadGateway, class: doctype.Classify("", k.String())})
			return
		}
		if !own.oversize {
			// The origin changed its answer between the two fetches.
			s.serveEntry(w, r, k, own.entry, res, false)
			return
		}
		fr = own
	}
	ct := fr.resp.Header.Get("Content-Type")
	out := outcome{result: res, status: fr.resp.StatusCode, contentType: ct, class: doctype.Classify(ct, k.String())}
	defer func() {
		// However far the copy below gets, the hand-off readResponse began
		// ends here: close the upstream body, release its timeout context,
		// return the prefix's pooled buffer.
		_ = fr.resp.Body.Close()
		fr.release()
		fr.prefix.Release()
	}()
	h := w.Header()
	if out.contentType != "" {
		h.Set("Content-Type", out.contentType)
	}
	if cl := fr.resp.ContentLength; cl >= 0 {
		h.Set("Content-Length", strconv.FormatInt(cl, 10))
	}
	setCacheHeaders(h, out)
	w.WriteHeader(out.status)
	n, err := w.Write(fr.prefix.B)
	out.bytes = int64(n)
	if err == nil { // else the client went away mid-stream; nothing more to send
		var m int64
		m, err = io.Copy(w, fr.resp.Body)
		out.bytes += m
		s.metrics.originBytes.Add(m) // the prefix was counted at fetch time
		if err != nil {
			s.metrics.originErrors.Inc()
		}
	}
	s.account(r, k, out)
}

// account is the pipeline's one exit: the counters /metrics exports plus
// the access-log line, once per written response.
func (s *Server) account(r *http.Request, k *requestKey, out outcome) {
	s.metrics.requestsByClass[out.class].Inc()
	s.metrics.requestBytesByClass[out.class].Add(out.bytes)
	switch out.result {
	case resultHit:
		s.metrics.hitsByClass[out.class].Inc()
		s.metrics.hitBytesByClass[out.class].Add(out.bytes)
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
	if s.logw != nil {
		s.logMu.Lock()
		// The access log records what the trace pipeline consumes; the
		// simulator ignores Squid's action field, so TCP_MISS (the writer's
		// fixed action) is sufficient. Logging is best-effort: a write
		// error must not fail a request that was already answered.
		_ = s.logw.Write(&trace.Request{
			UnixMillis:   s.now().UnixMilli(),
			URL:          k.String(),
			Status:       out.status,
			TransferSize: out.bytes,
			ContentType:  out.contentType,
			Client:       clientAddr(r),
			Method:       http.MethodGet,
		})
		if !s.logPending {
			// The first line since the last flush schedules the next.
			s.logPending = true
			time.AfterFunc(logFlushEvery, func() {
				_ = s.flushLog() // best-effort, like the write; Close reports
			})
		}
		s.logMu.Unlock()
	}
}

func clientAddr(r *http.Request) string {
	if r.RemoteAddr == "" {
		return "-"
	}
	return r.RemoteAddr
}
