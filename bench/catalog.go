package main

import "fmt"

// This file is the benchmark's declaration: the workloads, the end-to-end
// metrics with the bound each may worsen by, and the per-layer metrics.
// BENCHMARK.json at the repository root says the same thing to the driver;
// TestCatalogMatchesBenchmarkJSON keeps the two from drifting.

// metricDef declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

type workloadDef struct {
	Name string
	Why  string
}

// runSeconds is the measuring time of one run: BENCHMARK.json's
// run_seconds and the default of --seconds.
const runSeconds = 22

var workloads = []workloadDef{
	{"serve_hot", "one node whose cache holds every document: after the fill each response is a hit, so handler hit path, cache lookup, net/http and the kernel do all the work"},
	{"serve_churn", "same requests, cache of 3% of the bytes under GD*(P)+TinyLFU: origin fetch, pooled buffers, insert, eviction and admission carry the cost a hit-path gain could hide"},
	{"fleet_peer", "three nodes in full mesh, requests sprayed round-robin: two thirds take the peer hop, so cluster routing and the peer-fetch path dominate and replacement does nothing"},
	{"sweep_offline", "the paper's pipeline without sockets: gzip Squid log to workload to six schemes x four capacities to per-class tables; trace, core and policy do everything, proxy nothing"},
}

// endToEnd is what a user of the system sees and the driver gates. On the
// serving workloads an operation is one HTTP request; on sweep_offline it
// is one trace event replayed in one sweep cell. Latency percentiles and
// CPU per request are not here but in perLayer (e2e.*): on the machine
// the benchmark was built on their run-to-run spread exceeds the widest
// bound the driver allows (README.md, "The machine under the benchmark").
var endToEnd = []metricDef{
	{"req_per_s", "req/s", "higher", 0.25},
	{"hit_rate", "ratio", "higher", 0.10},
	{"byte_hit_rate", "ratio", "higher", 0.20},
	{"rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// studySchemes are the paper's six configurations, in the order
// policy.StudyFactories returns them, under the names metrics carry.
var studySchemes = []string{"lru", "lfuda", "gds-1", "gdstar-1", "gds-p", "gdstar-p"}

// classNames are the document classes in doctype.Classes order.
var classNames = []string{"image", "html", "media", "app", "other"}

// perLayer lists every single-layer metric, layer by layer; the layer is
// the part of the name before the first dot and is the name of the module
// measured. A workload whose path does not cross a layer reports that
// layer's [e2e] and [scrape] metrics as 0 (README.md lists which).
var perLayer = func() []metricDef {
	ms := []metricDef{
		{Name: "e2e.lat_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "e2e.lat_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "e2e.cpu_us_per_req", Unit: "us", Better: "lower"},

		{Name: "proxy.hit_us_p50", Unit: "us", Better: "lower"},
		{Name: "proxy.hit_us_p99", Unit: "us", Better: "lower"},
		{Name: "proxy.miss_us_p50", Unit: "us", Better: "lower"},
		{Name: "proxy.miss_self_us_p50", Unit: "us", Better: "lower"},
		{Name: "proxy.handler_hit_ns", Unit: "ns", Better: "lower"},
		{Name: "proxy.handler_hit_allocs", Unit: "count", Better: "lower"},
		{Name: "proxy.handler_miss_ns", Unit: "ns", Better: "lower"},
		{Name: "proxy.socket_share", Unit: "ratio", Better: "lower"},
		{Name: "proxy.origin_fetches", Unit: "count", Better: "lower"},
		{Name: "proxy.coalesced_share", Unit: "ratio", Better: "higher"},
		{Name: "proxy.evictions", Unit: "count", Better: "lower"},
		{Name: "proxy.uncacheable", Unit: "count", Better: "lower"},
		{Name: "proxy.stale_served", Unit: "count", Better: "lower"},

		{Name: "cache.get_ns", Unit: "ns", Better: "lower"},
		{Name: "cache.insert_ns", Unit: "ns", Better: "lower"},
		{Name: "cache.evictions_per_insert", Unit: "ratio", Better: "lower"},
		{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "cache.reject_share", Unit: "ratio", Better: "lower"},
		{Name: "cache.get_scaling_c2", Unit: "ratio", Better: "higher"},
	}
	for _, s := range studySchemes {
		ms = append(ms, metricDef{Name: "policy." + s + ".ns_per_op", Unit: "ns", Better: "lower"})
	}
	ms = append(ms,
		metricDef{Name: "admission.tinylfu.admit_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "admission.arc-ghost.admit_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "admission.admit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "admission.ghost_hit_share", Unit: "ratio", Better: "higher"},

		metricDef{Name: "pool.get_release_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "pool.reuse_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "pool.bypass_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "pool.outstanding_end", Unit: "count", Better: "lower"},

		metricDef{Name: "flight.do_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "flight.do_ns_c2", Unit: "ns", Better: "lower"},

		metricDef{Name: "metrics.inc_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "metrics.vec_with_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "metrics.observe_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "metrics.scrape_ms", Unit: "ms", Better: "lower"},

		metricDef{Name: "cluster.owner_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "cluster.route_key_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "cluster.peer_hit_us_p50", Unit: "us", Better: "lower"},
		metricDef{Name: "cluster.peer_hop_us", Unit: "us", Better: "lower"},
		metricDef{Name: "cluster.peer_hit_share", Unit: "ratio", Better: "higher"},
		metricDef{Name: "cluster.origin_fetches_per_doc", Unit: "ratio", Better: "lower"},
		metricDef{Name: "cluster.peer_fetches", Unit: "count", Better: "lower"},
		metricDef{Name: "cluster.peer_errors", Unit: "count", Better: "lower"},

		metricDef{Name: "trace.squid_decode_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "trace.wct2_decode_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "trace.wct3_open_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "trace.gzip_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "trace.hash64_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "trace.ingest_events_per_s", Unit: "events/s", Better: "higher"},

		metricDef{Name: "core.build_ns_per_event", Unit: "ns", Better: "lower"},
	)
	for _, s := range studySchemes {
		ms = append(ms, metricDef{Name: "core.replay_ns_per_event." + s, Unit: "ns", Better: "lower"})
	}
	ms = append(ms,
		metricDef{Name: "core.stream_ns_per_event", Unit: "ns", Better: "lower"},
		metricDef{Name: "core.sweep_events_per_s", Unit: "events/s", Better: "higher"},
		metricDef{Name: "core.sweep_parallel_eff", Unit: "ratio", Better: "higher"},
		metricDef{Name: "core.journal_overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "core.hits_total", Unit: "count", Better: "higher"},
		metricDef{Name: "core.evictions_total", Unit: "count", Better: "lower"},

		metricDef{Name: "mrc.compute_ns_per_event", Unit: "ns", Better: "lower"},
		metricDef{Name: "synth.gen_ns_per_req", Unit: "ns", Better: "lower"},
		metricDef{Name: "doctype.classify_ns", Unit: "ns", Better: "lower"},
	)
	for _, c := range classNames {
		ms = append(ms,
			metricDef{Name: "doctype." + c + ".hit_rate", Unit: "ratio", Better: "higher"},
			metricDef{Name: "doctype." + c + ".byte_hit_rate", Unit: "ratio", Better: "higher"})
	}
	ms = append(ms,
		metricDef{Name: "report.render_ms", Unit: "ms", Better: "lower"},

		metricDef{Name: "bench.null_server_us_per_req", Unit: "us", Better: "lower"},
		metricDef{Name: "bench.client_cpu_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "bench.open_p50_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "bench.open_p99_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "bench.open_backlog_max", Unit: "count", Better: "lower"},
		metricDef{Name: "bench.gen_late_p99_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "bench.pipeline_s", Unit: "s", Better: "lower"},
	)
	return ms
}()

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome; marshalled, it is the last line of
// standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runReport collects a run's metrics under the names the catalogue declares.
type runReport struct {
	defs    map[string]metricDef
	values  map[string]float64
	problem []string // failed checks; any entry makes the run incorrect
}

func newReport(defs []metricDef) *runReport {
	r := &runReport{defs: make(map[string]metricDef, len(defs)), values: make(map[string]float64, len(defs))}
	for _, d := range defs {
		r.defs[d.Name] = d
	}
	return r
}

// set records a metric. Setting an undeclared name or the same name twice
// is a bug in the harness and is reported as a failed check.
func (r *runReport) set(name string, v float64) {
	if _, ok := r.defs[name]; !ok {
		r.fail("metric %q is not in the catalogue", name)
		return
	}
	if _, dup := r.values[name]; dup {
		r.fail("metric %q reported twice", name)
		return
	}
	r.values[name] = v
}

// absent reports metrics of layers the workload's path does not cross.
// The driver's contract wants every declared metric from every workload,
// so these are printed as 0 instead of being left out.
func (r *runReport) absent(names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
}

func (r *runReport) fail(format string, args ...any) {
	r.problem = append(r.problem, fmt.Sprintf(format, args...))
}

// metrics returns the reported values with their units, failing the run
// if any declared metric is missing.
func (r *runReport) metrics() map[string]metricValue {
	out := make(map[string]metricValue, len(r.defs))
	for name, d := range r.defs {
		v, ok := r.values[name]
		if !ok {
			r.fail("metric %q was not reported", name)
		}
		out[name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}
