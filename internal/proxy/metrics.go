package proxy

import (
	"strconv"

	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/metrics"
)

// serverMetrics is the proxy's exported instrumentation. Every metric is
// documented in docs/METRICS.md; changing a name here is a breaking
// change for scrapers (and ReadCounts) and must update that file. What
// the store already counts — evictions, budget and admission rejects,
// admissions — is exported from the store's own counters by
// registerFuncs, not counted a second time here.
type serverMetrics struct {
	misses       *metrics.Counter
	originErrors *metrics.Counter

	// uncacheableRules counts responses the paper's cacheability rules
	// (status, URL heuristics, size bound, Cache-Control) kept out of the
	// cache; uncacheableOversize counts bodies that exceeded
	// MaxObjectBytes and were streamed through to the client uncached;
	// uncacheableAuthorization counts bodies fetched for a client that sent
	// Authorization (RFC 9111 §3.5). All three are children of
	// wcproxy_uncacheable_total, split by reason; a response counts once.
	uncacheableRules         *metrics.Counter
	uncacheableOversize      *metrics.Counter
	uncacheableAuthorization *metrics.Counter

	// coalesced counts misses that shared another request's origin fetch;
	// staleServed counts expired copies served because the origin was
	// down; originRetries counts backoff-spaced re-attempts.
	coalesced     *metrics.Counter
	staleServed   *metrics.Counter
	originRetries *metrics.Counter

	// The cluster trio, zero on an unclustered proxy. peerHits counts
	// requests answered from a sibling's cache (disjoint from hits and
	// misses: requests = hits + peerHits + misses);
	// peerFetches counts fetch attempts sent to siblings (fetch-centric,
	// so coalesced followers of one peer fetch do not add to it);
	// peerErrors counts peer fetches that failed — down, timed out, or a
	// non-authoritative answer — and fell back to the origin.
	peerHits    *metrics.Counter
	peerFetches *metrics.Counter
	peerErrors  *metrics.Counter

	// originBytes is every body byte fetched upstream.
	originBytes *metrics.Counter

	originSeconds *metrics.Histogram
	objectBytes   *metrics.Histogram

	// requestsByClass/hitsByClass count requests and local cache hits by
	// document class, the study's central axis. requestBytesByClass is
	// every body byte delivered to a client, whatever the outcome, and
	// hitBytesByClass the part served from the local cache — the bytes
	// the origin did not have to send — so their quotient per class is
	// the paper's per-type byte hit rate. The unlabelled totals are sums
	// of these children, computed at scrape time. Children are pre-created
	// for every class so the hot path never takes the vec's creation lock.
	requestsByClass     [doctype.NumClasses + 1]*metrics.Counter
	hitsByClass         [doctype.NumClasses + 1]*metrics.Counter
	requestBytesByClass [doctype.NumClasses + 1]*metrics.Counter
	hitBytesByClass     [doctype.NumClasses + 1]*metrics.Counter
}

// newServerMetrics registers the proxy's metrics. The server's occupancy
// gauges are registered by the caller once the Server exists.
func newServerMetrics(reg *metrics.Registry) *serverMetrics {
	m := &serverMetrics{
		misses: reg.NewCounter("wcproxy_misses_total",
			"Requests that required an origin fetch."),
		originErrors: reg.NewCounter("wcproxy_origin_errors_total",
			"Upstream fetches that failed."),
		coalesced: reg.NewCounter("wcproxy_coalesced_total",
			"Misses that shared another request's in-flight origin fetch."),
		staleServed: reg.NewCounter("wcproxy_stale_served_total",
			"Requests answered with an expired cached copy because the origin was unreachable."),
		originRetries: reg.NewCounter("wcproxy_origin_retries_total",
			"Origin fetch re-attempts after a transport failure (backoff-spaced)."),
		originBytes: reg.NewCounter("wcproxy_origin_bytes_total",
			"Body bytes fetched from the origin."),
		originSeconds: reg.NewHistogram("wcproxy_origin_fetch_seconds",
			"Origin fetch latency (round trip plus body read).",
			metrics.DefaultLatencyBuckets()),
		objectBytes: reg.NewHistogram("wcproxy_object_bytes",
			"Size of bodies fetched from the origin.",
			metrics.DefaultSizeBuckets()),
		peerHits: reg.NewCounter("wcproxy_peer_hits_total",
			"Requests answered from a sibling node's cache (disjoint from hits and misses)."),
		peerFetches: reg.NewCounter("wcproxy_peer_fetches_total",
			"Fetch attempts sent to the owning sibling (one per miss group, not per request)."),
		peerErrors: reg.NewCounter("wcproxy_peer_errors_total",
			"Peer fetches that failed (down, timeout, non-authoritative answer) and fell back to the origin."),
	}
	uncacheableVec := reg.NewCounterVec("wcproxy_uncacheable_total",
		"Fetched responses not stored, by reason: rules (status, URL heuristics, size or Cache-Control), oversize (body exceeded the object limit and was streamed through uncached) or authorization (fetched for one client with its credentials).",
		"reason")
	m.uncacheableRules = uncacheableVec.With("rules")
	m.uncacheableOversize = uncacheableVec.With("oversize")
	m.uncacheableAuthorization = uncacheableVec.With("authorization")
	reqVec := reg.NewCounterVec("wcproxy_class_requests_total",
		"GET requests per document class.", "class")
	hitVec := reg.NewCounterVec("wcproxy_class_hits_total",
		"Cache hits per document class.", "class")
	reqBytesVec := reg.NewCounterVec("wcproxy_class_request_bytes_total",
		"Body bytes delivered to clients per document class (sums to wcproxy_request_bytes_total).", "class")
	hitBytesVec := reg.NewCounterVec("wcproxy_class_hit_bytes_total",
		"Body bytes served from cache per document class (sums to wcproxy_hit_bytes_total).", "class")
	for c := doctype.Class(0); c <= doctype.NumClasses; c++ {
		m.requestsByClass[c] = reqVec.With(c.Short())
		m.hitsByClass[c] = hitVec.With(c.Short())
		m.requestBytesByClass[c] = reqBytesVec.With(c.Short())
		m.hitBytesByClass[c] = hitBytesVec.With(c.Short())
	}
	reg.NewCounterFunc("wcproxy_requests_total",
		"GET requests handled (hits + misses).", sumOf(&m.requestsByClass))
	reg.NewCounterFunc("wcproxy_hits_total",
		"Requests served from cache.", sumOf(&m.hitsByClass))
	reg.NewCounterFunc("wcproxy_request_bytes_total",
		"Body bytes delivered to clients (the byte-hit-rate denominator).", sumOf(&m.requestBytesByClass))
	reg.NewCounterFunc("wcproxy_hit_bytes_total",
		"Body bytes served from cache (origin traffic saved).", sumOf(&m.hitBytesByClass))
	return m
}

// sumOf reads a total as the sum of its per-class children.
func sumOf(children *[doctype.NumClasses + 1]*metrics.Counter) func() int64 {
	return func() int64 {
		var n int64
		for _, c := range children {
			n += c.Value()
		}
		return n
	}
}

// registerFuncs exposes what the store and the pool keep themselves: the
// store's decision counters and both live occupancies. The byte gauges
// are atomic loads, one per shard or class for the per-shard and
// per-class families, as are the per-class object counts; the object
// count and the admission counts briefly take each shard lock in turn.
func (s *Server) registerFuncs(reg *metrics.Registry) {
	reg.NewCounterFunc("wcproxy_evictions_total",
		"Cached objects evicted to make room.", s.store.Evictions)
	reg.NewCounterFunc("wcproxy_cache_rejects_total",
		"Cacheable responses the store refused for want of byte budget.", s.store.Rejects)
	reg.NewCounterFunc("wcproxy_admission_rejected_total",
		"Cacheable responses the admission filter refused.", s.store.AdmissionRejects)
	reg.NewCounterFunc("wcproxy_admission_admitted_total",
		"Cacheable responses the admission filter let into the cache.",
		func() int64 { return s.store.AdmissionCounts().Admitted })
	reg.NewGaugeFunc("wcproxy_cache_used_bytes",
		"Bytes of cached response bodies currently resident.",
		func() float64 { return float64(s.Used()) })
	reg.NewGaugeFunc("wcproxy_cache_objects",
		"Cached objects currently resident.",
		func() float64 { return float64(s.Len()) })
	reg.NewGaugeFunc("wcproxy_cache_capacity_bytes",
		"Configured cache capacity.",
		func() float64 { return float64(s.cfg.Capacity) })
	reg.NewGaugeFunc("wcproxy_cache_shards",
		"Cache shard count (per-shard locks and policy instances).",
		func() float64 { return float64(s.store.Shards()) })
	shards := make([]string, s.store.Shards())
	for i := range shards {
		shards[i] = strconv.Itoa(i)
	}
	reg.NewGaugeFuncVec("wcproxy_cache_shard_used_bytes",
		"Bytes resident in each cache shard; eviction takes its victim from the fullest.",
		"shard", shards, s.store.ShardUsed)
	classes := make([]string, doctype.NumClasses+1)
	for c := range classes {
		classes[c] = doctype.Class(c).Short()
	}
	reg.NewGaugeFuncVec("wcproxy_class_resident_bytes",
		"Bytes of cached response bodies resident per document class (sums to wcproxy_cache_used_bytes).",
		"class", classes, s.store.ClassUsed)
	reg.NewGaugeFuncVec("wcproxy_class_resident_objects",
		"Cached objects resident per document class (sums to wcproxy_cache_objects).",
		"class", classes, s.store.ClassLen)
	reg.NewGaugeFunc("wcproxy_cluster_peers",
		"Fleet size this node routes across (self included), fixed at start; 0 on an unclustered proxy.",
		func() float64 {
			cs := s.cluster
			if cs == nil {
				return 0
			}
			return float64(cs.ring.Len())
		})
	reg.NewGaugeFunc("wcproxy_admission_ghost_hits",
		"Admissions granted because the candidate was in a ghost directory of recent evictions.",
		func() float64 { return float64(s.store.AdmissionCounts().GhostHits) })
	reg.NewGaugeFunc("wcproxy_pool_buffers_outstanding",
		"Pooled buffers currently held (cached bodies, in-flight reads and scratch).",
		func() float64 { return float64(s.buffers.Stats().Outstanding()) })
	reg.NewGaugeFunc("wcproxy_pool_buffer_allocs",
		"Slots carved from the arena because a size class had none idle; never given back, so it plateaus at peak concurrent use.",
		func() float64 { return float64(s.buffers.Stats().News) })
	reg.NewGaugeFunc("wcproxy_pool_arena_bytes",
		"Off-heap memory carved into buffer slots so far, idle or held (cache_used_bytes over this is the pool's memory efficiency).",
		func() float64 { return float64(s.buffers.Stats().ArenaBytes) })
	reg.NewGaugeFunc("wcproxy_pool_bypass",
		"Buffer requests larger than the biggest pool class, served straight from the heap.",
		func() float64 { return float64(s.buffers.Stats().Bypass) })
}

// ReadCounts turns a scrape — what metrics.ParseText returns for a
// proxy's /metrics — into the paper's shape: requests, hits and their
// body bytes, overall and per document class, so a live node reads like
// a simulation's core.Result. It reads the request, hit and byte series
// registered above; a series missing from m reads as zero. On a clustered
// node requests include peer hits, which are not hits.
func ReadCounts(m map[string]float64) (overall core.Counts, byClass core.ClassCounts) {
	counts := func(family, label string) core.Counts {
		return core.Counts{
			Requests: int64(m[family+"requests_total"+label]),
			Hits:     int64(m[family+"hits_total"+label]),
			ReqBytes: int64(m[family+"request_bytes_total"+label]),
			HitBytes: int64(m[family+"hit_bytes_total"+label]),
		}
	}
	overall = counts("wcproxy_", "")
	for c := range byClass {
		byClass[c] = counts("wcproxy_class_", `{class="`+doctype.Class(c).Short()+`"}`)
	}
	return overall, byClass
}
