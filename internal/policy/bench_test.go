package policy

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchDocs prepares a reusable document population.
func benchDocs(n int) []*Doc {
	rng := rand.New(rand.NewSource(1))
	docs := make([]*Doc, n)
	for i := range docs {
		docs[i] = &Doc{Key: fmt.Sprintf("d%d", i), ID: int32(i), Size: int64(64 + rng.Intn(100_000))}
	}
	return docs
}

// benchPolicy drives a policy through a steady-state churn of inserts,
// hits, and evictions.
func benchPolicy(b *testing.B, newPolicy func() Policy) {
	b.Helper()
	docs := benchDocs(4096)
	p := newPolicy()
	resident := make([]*Doc, 0, len(docs))
	live := make([]bool, len(docs)) // by Doc.ID
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch {
		case len(resident) < 1024 || rng.Intn(3) == 0:
			d := docs[rng.Intn(len(docs))]
			if !live[d.ID] {
				p.Insert(d)
				live[d.ID] = true
				resident = append(resident, d)
			} else {
				p.Hit(d)
			}
		case rng.Intn(2) == 0:
			p.Hit(resident[rng.Intn(len(resident))])
		default:
			if v, ok := p.Evict(); ok {
				live[v.ID] = false
				for j, d := range resident {
					if d == v {
						resident[j] = resident[len(resident)-1]
						resident = resident[:len(resident)-1]
						break
					}
				}
			}
		}
	}
}

func BenchmarkLRUOps(b *testing.B)   { benchPolicy(b, func() Policy { return NewLRU() }) }
func BenchmarkFIFOOps(b *testing.B)  { benchPolicy(b, func() Policy { return NewFIFO() }) }
func BenchmarkLFUDAOps(b *testing.B) { benchPolicy(b, func() Policy { return NewLFUDA() }) }
func BenchmarkGDSOps(b *testing.B)   { benchPolicy(b, func() Policy { return NewGDS(ConstantCost{}) }) }
func BenchmarkGDStarOps(b *testing.B) {
	benchPolicy(b, func() Policy { return NewGDStar(PacketCost{}, 0.8) })
}
func BenchmarkGDStarOnlineOps(b *testing.B) {
	benchPolicy(b, func() Policy { return NewGDStar(PacketCost{}, 0) })
}
func BenchmarkGDSFOps(b *testing.B) { benchPolicy(b, func() Policy { return NewGDSF(PacketCost{}) }) }
func BenchmarkSLRUOps(b *testing.B) { benchPolicy(b, func() Policy { return NewSLRU(1024) }) }
func BenchmarkTypeAwareOps(b *testing.B) {
	inner := MustFactory(Spec{Scheme: "lru"})
	benchPolicy(b, func() Policy { return NewTypeAware(inner) })
}

// BenchmarkBetaEstimatorObserve prices one reference to a document known
// by its dense ID (the simulator's) and by its URL alone (the store's).
func BenchmarkBetaEstimatorObserve(b *testing.B) {
	const numDocs = 10_000
	for _, keying := range []string{"dense", "url"} {
		docs := make([]Doc, numDocs)
		for id := range docs {
			docs[id] = Doc{ID: int32(id)}
			if keying == "url" {
				docs[id] = Doc{ID: -1, Key: fmt.Sprintf("http://example.com/doc/%d", id)}
			}
		}
		b.Run(keying, func(b *testing.B) {
			e := NewBetaEstimator()
			rng := rand.New(rand.NewSource(3))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Observe(&docs[rng.Intn(numDocs)])
			}
		})
	}
}

func BenchmarkPacketCost(b *testing.B) {
	var c PacketCost
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += c.Cost(int64(i % 1_000_000))
	}
	_ = sink
}
