package synth

import (
	"math/rand"
	"testing"
)

// BenchmarkGenerate measures trace-synthesis throughput (requests/op are
// 1 each; ns/op is the per-request generation cost). Rebuilding the
// generator after each million requests is set-up, not generation, so
// the timer stops around it.
func BenchmarkGenerate(b *testing.B) {
	newGen := func() *Generator {
		g, err := NewGenerator(DFNProfile(), Options{Seed: 1, Requests: 1_000_000})
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	g := newGen()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Next(); err != nil {
			b.StopTimer()
			g = newGen()
			b.StartTimer()
		}
	}
}

func BenchmarkZipfSample(b *testing.B) {
	z, err := NewZipf(1_000_000, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += z.Sample(rng)
	}
	_ = sink
}

func BenchmarkStackDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	sd := newStackDistance(0.8, 65536)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += sd.sample(rng)
	}
	_ = sink
}

func BenchmarkLogNormalSample(b *testing.B) {
	l, err := NewLogNormal(10, 50)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += l.Sample(rng)
	}
	_ = sink
}
