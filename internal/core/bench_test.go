package core

import (
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"webcachesim/internal/policy"
	"webcachesim/internal/synth"
	"webcachesim/internal/trace"
)

// benchWorkload builds a mixed workload for simulator throughput
// benchmarks.
func benchWorkload(b *testing.B, requests int) *Workload {
	b.Helper()
	w, err := BuildWorkload(trace.NewSliceReader(benchRequests(requests)), 0)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkSimulatorEventThroughput measures events/second per policy —
// the quantity that bounds full-trace simulation time.
func BenchmarkSimulatorEventThroughput(b *testing.B) {
	w := benchWorkload(b, 50_000)
	for _, f := range policy.StudyFactories() {
		b.Run(f.Name, func(b *testing.B) {
			sim, err := NewSimulator(w, Config{Capacity: 4 << 20, Policy: f})
			if err != nil {
				b.Fatal(err)
			}
			n := w.NumRequests()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := w.Event(i % n)
				sim.Process(&ev)
			}
		})
	}
}

// benchRequests generates the raw request stream behind benchWorkload.
func benchRequests(requests int) []*trace.Request {
	rng := rand.New(rand.NewSource(1))
	exts := []string{"gif", "html", "mp3", "pdf"}
	reqs := make([]*trace.Request, 0, requests)
	for i := 0; i < requests; i++ {
		id := int(float64(requests/3) * rng.Float64() * rng.Float64())
		ext := exts[id%len(exts)]
		size := int64(200 + rng.Intn(50_000))
		reqs = append(reqs, &trace.Request{
			URL:          fmt.Sprintf("http://bench/d%d.%s", id, ext),
			Status:       200,
			TransferSize: size,
			DocSize:      size,
		})
	}
	return reqs
}

// BenchmarkReplayInterned replays the benchmark request stream through
// the interned columnar workload and the production simulator under LRU.
func BenchmarkReplayInterned(b *testing.B) {
	w := benchWorkload(b, 50_000)
	sim, err := NewSimulator(w, Config{
		Capacity: 4 << 20,
		Policy:   policy.MustFactory(policy.Spec{Scheme: "lru"}),
	})
	if err != nil {
		b.Fatal(err)
	}
	n := w.NumRequests()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := w.Event(i % n)
		sim.Process(&ev)
	}
}

// BenchmarkBuildWorkload measures trace preprocessing throughput.
func BenchmarkBuildWorkload(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	reqs := make([]*trace.Request, 20_000)
	for i := range reqs {
		size := int64(100 + rng.Intn(10_000))
		reqs[i] = &trace.Request{
			URL:          fmt.Sprintf("http://bench/d%d.gif", rng.Intn(5000)),
			Status:       200,
			TransferSize: size,
			DocSize:      size,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildWorkload(trace.NewSliceReader(reqs), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngest measures the ingest layer the way wcsim and the
// benchmark's sweep_offline run it: a gzip Squid log of the DFN profile
// through the cacheability filter into BuildWorkload. "ahead" opens the
// file with trace.OpenFile, which inflates and decodes on other
// goroutines; "inline" runs the same decoder on the caller's.
func BenchmarkIngest(b *testing.B) {
	reqs, err := synth.Generate(synth.DFNProfile(), synth.Options{Seed: 1, Requests: 300_000})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "trace.log.gz")
	fw, err := trace.CreateFile(path, trace.FormatSquid)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range reqs {
		if err := fw.Write(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		b.Fatal(err)
	}
	ahead := func() (trace.Reader, io.Closer, error) {
		fr, err := trace.OpenFile(path, trace.FormatAuto)
		return fr, fr, err
	}
	inline := func() (trace.Reader, io.Closer, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		zr, err := gzip.NewReader(f)
		return trace.NewSquidReader(zr), f, err
	}
	for _, mode := range []struct {
		name string
		open func() (trace.Reader, io.Closer, error)
	}{{"ahead", ahead}, {"inline", inline}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			events := 0
			for i := 0; i < b.N; i++ {
				r, c, err := mode.open()
				if err != nil {
					b.Fatal(err)
				}
				w, err := BuildWorkload(trace.NewFilterReader(r), 0)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Close(); err != nil {
					b.Fatal(err)
				}
				events += w.NumRequests()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkSweepParallel measures the policy × size grid fan-out.
func BenchmarkSweepParallel(b *testing.B) {
	w := benchWorkload(b, 20_000)
	cfg := SweepConfig{
		Policies:   policy.StudyFactories(),
		Capacities: []int64{1 << 20, 4 << 20, 16 << 20},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepJournaled measures the same grid with the run journal
// enabled (discarded), bounding the instrumentation overhead against
// BenchmarkSweepParallel.
func BenchmarkSweepJournaled(b *testing.B) {
	w := benchWorkload(b, 20_000)
	cfg := SweepConfig{
		Policies:   policy.StudyFactories(),
		Capacities: []int64{1 << 20, 4 << 20, 16 << 20},
		Journal:    io.Discard,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepGrid runs the 6-policy sweep over an 8-point capacity
// grid (1 MB to 128 MB, geometric) on benchWorkload's 100k requests:
// 48 cells, each a full replay.
func BenchmarkSweepGrid(b *testing.B) {
	w := benchWorkload(b, 100_000)
	cfg := SweepConfig{Policies: policy.StudyFactories()}
	for i := 0; i < 8; i++ {
		cfg.Capacities = append(cfg.Capacities, 1<<(20+i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
