package metrics_test

import (
	"os"

	"webcachesim/internal/metrics"
)

// The basic flow: create a registry, register metrics at startup, update
// counters on the hot path, let gauges read their owner's value at
// scrape time, and expose the whole set in the Prometheus text
// format (normally via Registry.Handler mounted at /metrics).
func ExampleRegistry() {
	reg := metrics.NewRegistry()
	requests := reg.NewCounter("proxy_requests_total", "GET requests handled.")
	reg.NewGaugeFunc("proxy_cache_used_bytes", "Bytes of cached bodies.",
		func() float64 { return 4096 }) // read from the cache at each scrape

	requests.Add(3)

	_ = reg.WriteText(os.Stdout)
	// Output:
	// # HELP proxy_cache_used_bytes Bytes of cached bodies.
	// # TYPE proxy_cache_used_bytes gauge
	// proxy_cache_used_bytes 4096
	// # HELP proxy_requests_total GET requests handled.
	// # TYPE proxy_requests_total counter
	// proxy_requests_total 3
}

// Histograms count observations into fixed buckets; the exposition is
// cumulative, with an implicit +Inf bucket.
func ExampleHistogram() {
	reg := metrics.NewRegistry()
	lat := reg.NewHistogram("fetch_seconds", "Origin fetch latency.",
		[]float64{0.1, 1})

	lat.Observe(0.05)
	lat.Observe(0.3)
	lat.Observe(5)

	_ = reg.WriteText(os.Stdout)
	// Output:
	// # HELP fetch_seconds Origin fetch latency.
	// # TYPE fetch_seconds histogram
	// fetch_seconds_bucket{le="0.1"} 1
	// fetch_seconds_bucket{le="1"} 2
	// fetch_seconds_bucket{le="+Inf"} 3
	// fetch_seconds_sum 5.35
	// fetch_seconds_count 3
}

// A CounterVec is one counter per label value — here, requests broken
// down by document class, the study's central axis.
func ExampleCounterVec() {
	reg := metrics.NewRegistry()
	byClass := reg.NewCounterVec("requests_by_class_total",
		"Requests per document class.", "class")

	byClass.With("image").Add(2)
	byClass.With("html").Inc()

	_ = reg.WriteText(os.Stdout)
	// Output:
	// # HELP requests_by_class_total Requests per document class.
	// # TYPE requests_by_class_total counter
	// requests_by_class_total{class="html"} 1
	// requests_by_class_total{class="image"} 2
}
