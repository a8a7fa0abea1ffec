package metrics_test

import (
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"webcachesim/internal/metrics"
)

func expose(t *testing.T, r *metrics.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestCounter(t *testing.T) {
	r := metrics.NewRegistry()
	c := r.NewCounter("test_requests_total", "requests handled")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	out := expose(t, r)
	for _, want := range []string{
		"# HELP test_requests_total requests handled",
		"# TYPE test_requests_total counter",
		"test_requests_total 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterNegativeAddPanics(t *testing.T) {
	r := metrics.NewRegistry()
	c := r.NewCounter("test_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestGaugeAndGaugeFunc(t *testing.T) {
	r := metrics.NewRegistry()
	r.NewGaugeFunc("test_used_bytes", "occupancy", func() float64 { return 70 })
	r.NewGaugeFunc("test_ratio", "computed", func() float64 { return 0.5 })
	// A counter kept elsewhere is written like a Counter, digits and all,
	// where a gauge of the same value would switch to exponent form.
	r.NewCounterFunc("test_evictions_total", "owned by a store", func() int64 { return 12345678 })
	out := expose(t, r)
	for _, want := range []string{
		"# TYPE test_used_bytes gauge",
		"test_used_bytes 70",
		"# TYPE test_ratio gauge",
		"test_ratio 0.5",
		"# TYPE test_evictions_total counter",
		"test_evictions_total 12345678\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVec(t *testing.T) {
	r := metrics.NewRegistry()
	v := r.NewCounterVec("test_by_class_total", "per class", "class")
	v.With("image").Add(3)
	v.With("html").Inc()
	v.With("image").Inc()
	out := expose(t, r)
	// Series are emitted in sorted label-value order.
	htmlAt := strings.Index(out, `test_by_class_total{class="html"} 1`)
	imageAt := strings.Index(out, `test_by_class_total{class="image"} 4`)
	if htmlAt < 0 || imageAt < 0 || htmlAt > imageAt {
		t.Fatalf("bad vec exposition:\n%s", out)
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := metrics.NewRegistry()
	v := r.NewCounterVec("test_esc_total", "escaping", "k")
	v.With("a\"b\\c\nd").Inc()
	out := expose(t, r)
	if !strings.Contains(out, `test_esc_total{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
}

func TestHistogram(t *testing.T) {
	r := metrics.NewRegistry()
	h := r.NewHistogram("test_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100, math.NaN()} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 { // NaN dropped
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-102.65) > 1e-9 {
		t.Fatalf("Sum = %v, want 102.65", got)
	}
	out := expose(t, r)
	for _, want := range []string{
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="0.1"} 2`, // le is inclusive
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="10"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		"test_seconds_sum 102.65",
		"test_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramValidation(t *testing.T) {
	r := metrics.NewRegistry()
	for name, buckets := range map[string][]float64{
		"test_empty":      {},
		"test_descending": {1, 0.5},
		"test_nonfinite":  {1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bad buckets did not panic", name)
				}
			}()
			r.NewHistogram(name, "x", buckets)
		}()
	}
}

func TestBucketHelpers(t *testing.T) {
	got := metrics.ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExponentialBuckets = %v, want %v", got, want)
		}
	}
	if b := metrics.DefaultLatencyBuckets(); b[0] != 0.001 || len(b) != 15 {
		t.Fatalf("unexpected DefaultLatencyBuckets: %v", b)
	}
	if b := metrics.DefaultSizeBuckets(); b[0] != 256 || len(b) != 10 {
		t.Fatalf("unexpected DefaultSizeBuckets: %v", b)
	}
}

func TestDuplicateAndInvalidNamesPanic(t *testing.T) {
	r := metrics.NewRegistry()
	r.NewCounter("test_dup_total", "x")
	for name, fn := range map[string]func(){
		"duplicate":     func() { r.NewGaugeFunc("test_dup_total", "y", func() float64 { return 0 }) },
		"invalid name":  func() { r.NewCounter("bad name", "x") },
		"leading digit": func() { r.NewCounter("9bad", "x") },
		"invalid label": func() { r.NewCounterVec("test_vec_total", "x", "bad label") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registration did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHandler(t *testing.T) {
	r := metrics.NewRegistry()
	r.NewCounter("test_handler_total", "x").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want exposition format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "test_handler_total 1") {
		t.Errorf("body missing counter:\n%s", body)
	}
}

// TestParseTextRoundTrip registers one collector of every kind and reads
// the exposition back: every series WriteText renders must come out of
// ParseText with its value, comments and blank lines skipped, and a line
// that is not `series value` must be an error naming it, not a skipped row.
func TestParseTextRoundTrip(t *testing.T) {
	r := metrics.NewRegistry()
	r.NewCounter("test_rt_total", "a counter").Add(42)
	r.NewGaugeFunc("test_rt_used_bytes", "a gauge", func() float64 { return -7 })
	r.NewGaugeFunc("test_rt_ratio", "a computed gauge", func() float64 { return 0.25 })
	r.NewCounterFunc("test_rt_func_total", "a computed counter", func() int64 { return 9 })
	r.NewGaugeFuncVec("test_rt_shard_bytes", "a computed family", "shard", []string{"0", "1"},
		func() []int64 { return []int64{5, -2} })
	v := r.NewCounterVec("test_rt_by_class_total", "a vec", "class")
	v.With("html").Add(3)
	v.With("a \"b\\c\nd").Inc()
	h := r.NewHistogram("test_rt_seconds", "a histogram", []float64{0.1, 1})
	for _, obs := range []float64{0.05, 0.5, 5} {
		h.Observe(obs)
	}
	text := expose(t, r)
	if !strings.Contains(text, "# HELP") || !strings.Contains(text, "# TYPE") {
		t.Fatalf("exposition carries no comment lines to skip:\n%s", text)
	}
	got, err := metrics.ParseText(strings.NewReader("\n" + text + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"test_rt_total":                               42,
		"test_rt_used_bytes":                          -7,
		"test_rt_ratio":                               0.25,
		"test_rt_func_total":                          9,
		`test_rt_shard_bytes{shard="0"}`:              5,
		`test_rt_shard_bytes{shard="1"}`:              -2,
		`test_rt_by_class_total{class="html"}`:        3,
		`test_rt_by_class_total{class="a \"b\\c\nd"}`: 1,
		`test_rt_seconds_bucket{le="0.1"}`:            1,
		`test_rt_seconds_bucket{le="1"}`:              2,
		`test_rt_seconds_bucket{le="+Inf"}`:           3,
		"test_rt_seconds_sum":                         5.55,
		"test_rt_seconds_count":                       3,
	}
	for series, w := range want {
		if g, ok := got[series]; !ok || g != w {
			t.Errorf("%s = %v (present=%v), want %v", series, g, ok, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d series, want %d: %v", len(got), len(want), got)
	}
	for _, bad := range []string{"no_value", "name notanumber"} {
		_, err := metrics.ParseText(strings.NewReader(text + bad + "\n"))
		if err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("ParseText with line %q: err = %v, want an error naming the line", bad, err)
		}
	}
}

// FuzzParseText: the reader never panics, and whatever it accepts it
// accepts again — each series → value pair re-rendered as a line parses
// back to the same pair.
func FuzzParseText(f *testing.F) {
	f.Add("# HELP a b\n# TYPE a counter\na 1\n\na_bucket{le=\"+Inf\"} 3\nb{k=\"x y\"} 0.5\n")
	f.Add("no_value\n")
	f.Add("name notanumber\n")
	f.Add(" 1\nx NaN\ny -Inf 2\n")
	f.Fuzz(func(t *testing.T, text string) {
		got, err := metrics.ParseText(strings.NewReader(text))
		if err != nil {
			return
		}
		for series, v := range got {
			line := series + " " + strconv.FormatFloat(v, 'g', -1, 64)
			again, err := metrics.ParseText(strings.NewReader(line + "\n"))
			if err != nil {
				t.Fatalf("accepted pair re-rendered as %q is refused: %v", line, err)
			}
			if w, ok := again[series]; !ok || (w != v && !(math.IsNaN(w) && math.IsNaN(v))) {
				t.Fatalf("line %q parsed back as %v, want %s = %v", line, again, series, v)
			}
		}
	})
}

func TestConcurrentUpdates(t *testing.T) {
	r := metrics.NewRegistry()
	c := r.NewCounter("test_conc_total", "x")
	h := r.NewHistogram("test_conc_seconds", "x", []float64{0.5})
	v := r.NewCounterVec("test_conc_vec_total", "x", "k")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.25)
				v.With("a").Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 || v.With("a").Value() != 8000 {
		t.Fatalf("lost updates: counter=%d hist=%d vec=%d",
			c.Value(), h.Count(), v.With("a").Value())
	}
	if got := h.Sum(); math.Abs(got-2000) > 1e-6 {
		t.Fatalf("histogram Sum = %v, want 2000", got)
	}
}

// TestCounterVecConcurrentCreation races 8 goroutines creating and
// incrementing distinct AND shared label values: with the copy-on-write
// child map, every creation must land (no lost children) and every
// increment must go to the one true child for its value.
func TestCounterVecConcurrentCreation(t *testing.T) {
	r := metrics.NewRegistry()
	v := r.NewCounterVec("test_cow_vec_total", "x", "k")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v.With(fmt.Sprintf("own-%d-%d", g, i)).Inc() // fresh value: exercises creation
				v.With(fmt.Sprintf("shared-%d", i)).Inc()    // contended value: exercises the race check
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 200; i++ {
		if got := v.With(fmt.Sprintf("shared-%d", i)).Value(); got != 8 {
			t.Fatalf("shared-%d = %d, want 8", i, got)
		}
	}
	for g := 0; g < 8; g++ {
		for i := 0; i < 200; i++ {
			if got := v.With(fmt.Sprintf("own-%d-%d", g, i)).Value(); got != 1 {
				t.Fatalf("own-%d-%d = %d, want 1 (lost creation)", g, i, got)
			}
		}
	}
}
