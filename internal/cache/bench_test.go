package cache

import (
	"math/rand"
	"strconv"
	"testing"

	"webcachesim/internal/policy"
	"webcachesim/internal/synth"
)

// BenchmarkInsertEvict is the store's miss path at a full budget: a
// Zipf-keyed stream through 16 shards, Get and on a miss Insert, where
// nearly every insert evicts. It prices the victim choice — the scan of
// every shard's byte count — against the lookup and the policy it rides
// with.
func BenchmarkInsertEvict(b *testing.B) {
	const docs = 1 << 15
	z, err := synth.NewZipf(docs, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, docs)
	sizes := make([]int64, docs)
	var total int64
	for i := range keys {
		keys[i] = "http://bench.local/doc/" + strconv.Itoa(i)
		sizes[i] = 512 + rng.Int63n(8<<10)
		total += sizes[i]
	}
	stream := make([]int32, 1<<16)
	for i := range stream {
		stream[i] = int32(z.Sample(rng))
	}
	c, err := New(Config{Capacity: total / 20, Shards: 16,
		Policy: policy.MustFactory(policy.Spec{Scheme: "gdstar", Cost: policy.PacketCost{}})})
	if err != nil {
		b.Fatal(err)
	}
	step := func(i int) {
		d := stream[i&(len(stream)-1)]
		if e, ok := c.Get(keys[d]); ok {
			e.Release()
			return
		}
		c.Insert(keys[d], &Entry{Doc: &policy.Doc{Key: keys[d], Size: sizes[d]}})
	}
	for i := 0; i < 4*len(stream); i++ { // fill the budget, warm the policies
		step(i)
	}
	evicted := c.Evictions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Evictions()-evicted)/float64(b.N), "evictions/op")
}
