package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeOptions shrinks every workload to a couple of thousand requests
// and every timed section to a few milliseconds.
func smokeOptions(t *testing.T, traced bool) options {
	return options{
		seed:            7,
		measure:         20 * time.Millisecond,
		traced:          traced,
		outDir:          t.TempDir(),
		requests:        2000,
		offlineRequests: 2000,
		batch:           time.Millisecond,
		quiet:           true,
	}
}

// TestSmokeEveryWorkload runs all four workloads untraced and traced and
// checks what the driver checks: the run is correct, nothing failed, and
// every declared metric — and no other — is reported with its unit; and
// that a traced serving run leaves a well-formed spans.jsonl.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, w := range workloads {
			o := smokeOptions(t, traced)
			rec, err := runWorkload(w.Name, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, rec.Correct, rec.Attempted, rec.Failed)
			}
			if rec.Digest == "" {
				t.Errorf("%s traced=%v: no input digest", w.Name, traced)
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w.Name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not reported", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s traced=%v: %s has unit %q, want %q", w.Name, traced, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, d.Name, m.Value)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
			}
			if traced {
				if got := rec.Metrics["proxy.handler_hit_allocs"].Value; got != 0 && !raceEnabled {
					t.Errorf("%s: proxy.handler_hit_allocs = %v, want 0", w.Name, got)
				}
				if got := rec.Metrics["pool.outstanding_end"].Value; got != 0 {
					t.Errorf("%s: pool.outstanding_end = %v, want 0", w.Name, got)
				}
				// Every serving workload's fill pass reaches the origin.
				if w.Name != "sweep_offline" {
					checkSpans(t, filepath.Join(o.outDir, w.Name, "spans.jsonl"))
				}
			}
		}
	}
}

// checkSpans checks a traced run's spans.jsonl: every span ends after it
// starts, and every origin span names a client request as its parent.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	names := map[int64]string{}
	var children []span
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
		names[s.ID] = s.Name
		if s.Parent != 0 {
			children = append(children, s)
		}
	}
	if len(children) == 0 {
		t.Fatalf("%s: no origin span was matched to a client request", path)
	}
	for _, c := range children {
		if !strings.HasPrefix(names[c.Parent], "client.") || c.Req != c.Parent {
			t.Errorf("span %d (%s) has parent %d (%s), req %d", c.ID, c.Name, c.Parent, names[c.Parent], c.Req)
		}
	}
}

func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		in   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{4}, 99, 4},
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 99, 10},
		{ten, 100, 10},
		{ten, 1, 1},
	} {
		if got := percentile(c.in, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.in, c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns for the same values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 30, 20}, 10, 20, 30},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 9, 3, 7, 2, 8}, 2, 5, 8},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 120, End: 150}}, 70},
		{"overlapping children count once", []span{{Start: 120, End: 150}, {Start: 140, End: 160}}, 60},
		{"child clipped to parent", []span{{Start: 50, End: 110}, {Start: 190, End: 300}}, 80},
		{"child outside parent", []span{{Start: 10, End: 20}}, 100},
		{"child covers parent", []span{{Start: 0, End: 1000}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestUsable checks which repetitions a run's medians are taken over when
// the hypervisor stole processor time during some of them.
func TestUsable(t *testing.T) {
	const clean, lost = 0, time.Second // of a one-second repetition
	for _, c := range []struct {
		name   string
		stolen []time.Duration
		want   []int
	}{
		{"nothing stolen", []time.Duration{clean, clean, clean, clean}, []int{0, 1, 2, 3}},
		{"disturbed repetitions dropped", []time.Duration{clean, lost, clean, clean, lost}, []int{0, 2, 3}},
		{"too few clean: the least disturbed fill up", []time.Duration{lost, clean, lost / 2, lost / 4}, []int{1, 3, 2}},
		{"fewer than minPasses in all", []time.Duration{lost, clean}, []int{1, 0}},
	} {
		wall := make([]time.Duration, len(c.stolen))
		for i := range wall {
			wall[i] = time.Second
		}
		got := usable(wall, c.stolen)
		if len(got) != len(c.want) {
			t.Errorf("%s: usable = %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: usable = %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

// TestPinnedInputs regenerates the default seed's inputs at full size and
// compares their digests with the pinned ones: a change to internal/synth
// that changes what the benchmark asks for fails here instead of silently
// moving every number.
func TestPinnedInputs(t *testing.T) {
	serving, err := servingInput(defaultSeed, servingRequests)
	if err != nil {
		t.Fatal(err)
	}
	if serving.digest != pinnedServingDigest {
		t.Errorf("serving input digest = %s, pinned %s", serving.digest, pinnedServingDigest)
	}
	again, err := servingInput(defaultSeed, servingRequests)
	if err != nil {
		t.Fatal(err)
	}
	if again.digest != serving.digest {
		t.Errorf("same seed gave digests %s and %s", serving.digest, again.digest)
	}
	other, err := servingInput(defaultSeed+1, servingRequests)
	if err != nil {
		t.Fatal(err)
	}
	if other.digest == serving.digest {
		t.Error("a different seed gave the same input")
	}
	offline, err := offlineInput(defaultSeed, offlineRequests)
	if err != nil {
		t.Fatal(err)
	}
	if offline.digest != pinnedOfflineDigest {
		t.Errorf("offline input digest = %s, pinned %s", offline.digest, pinnedOfflineDigest)
	}
}

func TestJudge(t *testing.T) {
	higher := metricDef{Name: "req_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{100, 130, 70, 100, 140, 60, 100, 120, 80, 100}
	shift := func(vs []float64, by float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * by
		}
		return out
	}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same runs", higher, steady, steady, verdictUnchanged},
		{"small drop inside the bound", higher, steady, shift(steady, 0.95), verdictUnchanged},
		{"throughput drop beyond the bound", higher, steady, shift(steady, 0.85), verdictRegressed},
		{"throughput gain in every run", higher, steady, shift(steady, 1.2), verdictImproved},
		{"latency rise beyond the bound", lower, steady, shift(steady, 1.2), verdictRegressed},
		{"latency fall in every run", lower, steady, shift(steady, 0.8), verdictImproved},
		{"spread wider than the bound", higher, noisy, noisy, verdictUnresolved},
		{"noisy but every run better", higher, noisy, shift(noisy, 3), verdictImproved},
		{"noisy and worse beyond the bound", higher, noisy, shift(noisy, 0.5), verdictRegressed},
	} {
		if got, _, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareRefusesDifferentInputs checks that -compare will not set two
// files side by side when their runs drew different requests.
func TestCompareRefusesDifferentInputs(t *testing.T) {
	dir := t.TempDir()
	write := func(name, digest string) string {
		rec := record{Workload: "serve_hot", Seed: 1, Digest: digest, result: result{
			Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"req_per_s": {Value: 100, Unit: "req/s"}},
		}}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.jsonl", "d1"), write("b.jsonl", "d1"), write("c.jsonl", "d2")
	var sb strings.Builder
	regressed, err := compareFiles(&sb, a, b)
	if err != nil || regressed {
		t.Fatalf("same inputs: regressed=%v err=%v", regressed, err)
	}
	if !strings.Contains(sb.String(), verdictUnchanged) {
		t.Errorf("no unchanged row in:\n%s", sb.String())
	}
	if _, err := compareFiles(&sb, a, c); err == nil {
		t.Error("different input digests were compared")
	}
}

// benchmarkJSON mirrors the keys of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestCatalogMatchesBenchmarkJSON keeps the declaration the driver reads
// and the one the program reports by identical.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, catalogue %+v", i, bj.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if g := bj.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, catalogue %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue (128 at most)", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		if g := bj.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, catalogue %+v", i, g, d)
		}
		if seen[d.Name] {
			t.Errorf("%s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", bj.RunSeconds, runSeconds)
	}
}
