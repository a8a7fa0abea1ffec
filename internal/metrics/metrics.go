// Package metrics is a small, dependency-free instrumentation layer for
// the proxy and the simulation tooling: atomic counters, scrape-time
// gauges and fixed-bucket histograms collected in a Registry that exposes them in
// the Prometheus text format (exposition format version 0.0.4) over HTTP.
// ParseText reads that format back, for the tools and tests that check a
// run against a scrape.
//
// The package trades generality for predictability. Metric and label
// names are validated at registration time and duplicate registration
// panics — both are programmer errors, and failing at startup beats
// emitting an exposition a scraper silently rejects. All update paths
// (Counter.Add, Histogram.Observe, CounterVec.With on an
// existing child) are lock-free atomics, so instrumenting the proxy's
// request path costs a handful of uncontended atomic operations per
// request. See docs/METRICS.md for the catalogue of metrics the system
// exports.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// collector is one registered metric family: it renders its full
// exposition block (HELP, TYPE, series).
type collector interface {
	metricName() string
	writeText(w io.Writer) error
}

// Registry holds a set of uniquely named metrics and renders them in a
// stable (name-sorted) order. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu     sync.Mutex
	byName map[string]collector
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]collector)}
}

// register adds a collector, panicking on invalid or duplicate names —
// metric registration happens at startup and a bad name is a bug, not a
// runtime condition.
func (r *Registry) register(c collector) {
	name := c.metricName()
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", name))
	}
	r.byName[name] = c
}

// sorted returns the collectors in name order.
func (r *Registry) sorted() []collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]collector, len(names))
	for i, n := range names {
		out[i] = r.byName[n]
	}
	return out
}

// WriteText renders every registered metric in the Prometheus text
// exposition format, sorted by metric name.
func (r *Registry) WriteText(w io.Writer) error {
	for _, c := range r.sorted() {
		if err := c.writeText(w); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving the registry's Prometheus text
// exposition — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = io.WriteString(w, sb.String())
	})
}

// ParseText reads a text exposition back into series → value, the
// inverse of WriteText. Labeled series are keyed by their full text form,
// e.g. `wcproxy_class_hits_total{class="html"}`, and histograms parse like
// any other series under their suffixed names. Comments and blank lines
// are skipped; any other line that is not `series value` is an error
// naming the line — a reader that skipped it would reconcile against a
// ledger with a row missing.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// A label value may contain spaces; the sample value never does.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: exposition line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: reading exposition: %w", err)
	}
	return out, nil
}

// validName reports whether s is a legal Prometheus metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally may not contain ':', which
// validLabel enforces).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabel(s string) bool {
	return validName(s) && !strings.Contains(s, ":")
}

// desc is the shared identity of every metric.
type desc struct {
	name string
	help string
}

func (d desc) metricName() string { return d.name }

// header writes the HELP and TYPE lines for the family.
func (d desc) header(w io.Writer, typ string) error {
	help := strings.ReplaceAll(strings.ReplaceAll(d.help, "\\", `\\`), "\n", `\n`)
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", d.name, help, d.name, typ)
	return err
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, "\\", `\\`)
	s = strings.ReplaceAll(s, "\"", `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	desc
	v atomic.Int64
}

// NewCounter creates and registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{desc: desc{name: name, help: help}}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n; counters are monotonic, so a negative n
// panics.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("metrics: counter %s: negative add %d", c.name, n))
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) writeText(w io.Writer) error {
	if err := c.header(w, "counter"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", c.name, c.Value())
	return err
}

// gaugeFunc exposes a value computed at scrape time, as a gauge or (typ
// "counter") as a counter.
type gaugeFunc struct {
	desc
	typ string
	fn  func() float64
}

// NewGaugeFunc registers a gauge whose value is computed by fn at every
// exposition — the idiom for values owned by another subsystem (cache
// occupancy, goroutine counts). fn must be safe for concurrent use.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&gaugeFunc{desc: desc{name: name, help: help}, typ: "gauge", fn: fn})
}

// NewCounterFunc is NewGaugeFunc for a count another subsystem already
// keeps (a store's eviction total): exported as a counter, read by fn at
// every exposition, so the count lives in one place. fn must be
// monotonic and safe for concurrent use.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {
	r.register(&gaugeFunc{desc: desc{name: name, help: help}, typ: "counter",
		fn: func() float64 { return float64(fn()) }})
}

func (g *gaugeFunc) writeText(w io.Writer) error {
	if err := g.header(w, g.typ); err != nil {
		return err
	}
	v := g.fn()
	val := formatFloat(v)
	if g.typ == "counter" {
		val = strconv.FormatInt(int64(v), 10) // written like a Counter's
	}
	_, err := fmt.Fprintf(w, "%s %s\n", g.name, val)
	return err
}

// gaugeFuncVec is a family of integer gauges distinguished by one label,
// all read by one call at exposition time.
type gaugeFuncVec struct {
	desc
	label  string
	values []string
	fn     func() []int64
}

// NewGaugeFuncVec is NewGaugeFunc for a family distinguished by one label
// whose values are fixed at registration (a store's shards): fn returns
// one value per label value, in the order of values, and is called once
// per exposition. fn must be safe for concurrent use.
func (r *Registry) NewGaugeFuncVec(name, help, label string, values []string, fn func() []int64) {
	if !validLabel(label) {
		panic(fmt.Sprintf("metrics: invalid label name %q", label))
	}
	r.register(&gaugeFuncVec{desc: desc{name: name, help: help}, label: label, values: values, fn: fn})
}

func (g *gaugeFuncVec) writeText(w io.Writer) error {
	if err := g.header(w, "gauge"); err != nil {
		return err
	}
	vs := g.fn()
	for i, val := range g.values {
		if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", g.name, g.label, escapeLabelValue(val), vs[i]); err != nil {
			return err
		}
	}
	return nil
}

// CounterVec is a family of counters distinguished by the value of one
// label (e.g. requests by document class). Children are created on first
// use and live for the registry's lifetime, so label values must come
// from a small, bounded set — never from request URLs or client input.
//
// Lookup of an existing child is lock-free: the child map is an immutable
// snapshot behind an atomic pointer, replaced copy-on-write under a mutex
// only when a new label value first appears. With on a warm child is
// therefore one atomic load and a map read — safe on serving paths even
// without caching the child (though pre-resolving children, as the proxy
// does, is still cheaper).
type CounterVec struct {
	desc
	label string
	// children is the immutable current snapshot; writers replace it
	// whole under mu, readers load it without synchronization.
	children atomic.Pointer[map[string]*Counter]
	mu       sync.Mutex // serializes snapshot replacement only
}

// NewCounterVec creates and registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	if !validLabel(label) {
		panic(fmt.Sprintf("metrics: invalid label name %q", label))
	}
	v := &CounterVec{
		desc:  desc{name: name, help: help},
		label: label,
	}
	v.children.Store(&map[string]*Counter{})
	r.register(v)
	return v
}

// With returns the child counter for the given label value, creating it
// on first use.
func (v *CounterVec) With(value string) *Counter {
	if c, ok := (*v.children.Load())[value]; ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := *v.children.Load()
	if c, ok := cur[value]; ok {
		return c // another creator won the race
	}
	c := &Counter{desc: desc{name: v.name, help: v.help}}
	next := make(map[string]*Counter, len(cur)+1)
	for k, ch := range cur {
		next[k] = ch
	}
	next[value] = c
	v.children.Store(&next)
	return c
}

// values returns the label values in sorted order.
func (v *CounterVec) values() []string {
	cur := *v.children.Load()
	out := make([]string, 0, len(cur))
	for val := range cur {
		out = append(out, val)
	}
	sort.Strings(out)
	return out
}

func (v *CounterVec) writeText(w io.Writer) error {
	if err := v.header(w, "counter"); err != nil {
		return err
	}
	cur := *v.children.Load()
	for _, val := range v.values() {
		if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n",
			v.name, v.label, escapeLabelValue(val), cur[val].Value()); err != nil {
			return err
		}
	}
	return nil
}

// formatFloat renders a float the way the exposition format expects,
// mapping non-finite values to the +Inf/-Inf/NaN spellings.
func formatFloat(f float64) string {
	switch {
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	case math.IsNaN(f):
		return "NaN"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
