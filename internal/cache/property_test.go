package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
)

// TestPropertyAccountingMatchesOracle drives randomized
// insert/hit/remove/replace sequences against caches of several shard
// counts and checks, after every operation, that the cache's accounting
// agrees with a map-based model:
//
//   - residency: a key is Peek-able iff the model holds it
//   - bytes: sum(model sizes) == Used() == sum(ShardUsed())
//   - budget: Used() never exceeds capacity
//
// The model is maintained from the cache's own observable events (Set's
// admission result, Remove, and the residents a Set displaced, each of
// which Evictions must count once) — which is exactly what makes it an
// oracle for the bookkeeping: any double-free, leak, or missed eviction
// desynchronizes the two.
func TestPropertyAccountingMatchesOracle(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		for _, scheme := range []string{"lru", "size", "gds"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, scheme), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(shards)*1000 + int64(len(scheme))))
				model := map[string]int64{}
				spec, err := policy.ParseSpec(scheme)
				if err != nil {
					t.Fatal(err)
				}
				factory, err := policy.NewFactory(spec)
				if err != nil {
					t.Fatal(err)
				}
				const capacity = 4000
				c := mustNew(t, Config{
					Capacity: capacity,
					Shards:   shards,
					Policy:   factory,
				})

				keys := make([]string, 120)
				for i := range keys {
					keys[i] = fmt.Sprintf("http://x/doc%d", i)
				}
				for op := 0; op < 5000; op++ {
					k := keys[rng.Intn(len(keys))]
					switch r := rng.Intn(100); {
					case r < 55: // insert / replace
						size := int64(1 + rng.Intn(capacity/5))
						evictions := c.Evictions()
						stored := c.Set(k, ent(k, size))
						// A rejected Set still removed any previous
						// version before it failed to reserve.
						delete(model, k)
						var displaced int64
						for mk := range model {
							if _, ok := c.Peek(mk); !ok {
								delete(model, mk)
								displaced++
							}
						}
						if got := c.Evictions() - evictions; got != displaced {
							t.Fatalf("op %d: Set(%q) displaced %d residents, Evictions grew by %d", op, k, displaced, got)
						}
						if stored {
							model[k] = size
						}
					case r < 85: // lookup
						_, ok := c.Get(k)
						if _, want := model[k]; ok != want {
							t.Fatalf("op %d: Get(%q) resident=%v, model=%v", op, k, ok, want)
						}
					default: // explicit invalidation
						removed := c.Remove(k)
						if _, want := model[k]; removed != want {
							t.Fatalf("op %d: Remove(%q)=%v, model=%v", op, k, removed, want)
						}
						delete(model, k)
					}

					var modelBytes int64
					for _, s := range model {
						modelBytes += s
					}
					var shardSum int64
					for _, u := range c.ShardUsed() {
						shardSum += u
					}
					used := c.Used()
					if used > capacity {
						t.Fatalf("op %d: used %d exceeds capacity %d", op, used, capacity)
					}
					if modelBytes != used || shardSum != used {
						t.Fatalf("op %d: model=%d shards=%d used=%d diverged", op, modelBytes, shardSum, used)
					}
				}

				// Final residency cross-check, key by key.
				for _, k := range keys {
					_, resident := c.Peek(k)
					_, inModel := model[k]
					if resident != inModel {
						t.Errorf("final: %q resident=%v model=%v", k, resident, inModel)
					}
				}
			})
		}
	}
}

// TestPropertyConcurrentBudgetNeverOvershoots hammers one cache from many
// goroutines with random inserts, hits and removes while a sampler
// continuously asserts the byte budget. After the run the per-shard bytes
// must again reconcile exactly with the global counter and with a walk of
// the resident entries, and so must the per-class bytes and entries.
func TestPropertyConcurrentBudgetNeverOvershoots(t *testing.T) {
	const (
		capacity   = 64 << 10
		goroutines = 8
		opsPerG    = 4000
	)
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := mustNew(t, Config{Capacity: capacity, Shards: shards})

			var overshoot atomic.Int64
			stop := make(chan struct{})
			var samplerWG sync.WaitGroup
			samplerWG.Add(1)
			go func() {
				defer samplerWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if u := c.Used(); u > capacity {
							overshoot.Store(u)
							return
						}
					}
				}
			}()

			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g) + 42))
					for i := 0; i < opsPerG; i++ {
						doc := rng.Intn(300)
						k := fmt.Sprintf("http://x/doc%d", doc)
						switch r := rng.Intn(100); {
						case r < 50:
							e := ent(k, int64(1+rng.Intn(capacity/8)))
							e.Doc.Class = doctype.Class(doc % (doctype.NumClasses + 1))
							c.Set(k, e)
						case r < 90:
							c.Get(k)
						default:
							c.Remove(k)
						}
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			samplerWG.Wait()

			if o := overshoot.Load(); o != 0 {
				t.Fatalf("budget overshoot observed: used %d > capacity %d", o, capacity)
			}
			var shardSum int64
			for _, u := range c.ShardUsed() {
				shardSum += u
			}
			var walkSum int64
			var walkBytes, walkLen [doctype.NumClasses + 1]int64
			c.Each(func(_ string, e *Entry) {
				walkSum += e.Doc.Size
				walkBytes[e.Doc.Class] += e.Doc.Size
				walkLen[e.Doc.Class]++
			})
			if used := c.Used(); shardSum != used || walkSum != used || used > capacity {
				t.Fatalf("post-run accounting diverged: shards=%d walk=%d used=%d cap=%d",
					shardSum, walkSum, used, capacity)
			}
			if got, gotLen := c.ClassUsed(), c.ClassLen(); !slices.Equal(got, walkBytes[:]) || !slices.Equal(gotLen, walkLen[:]) {
				t.Fatalf("per-class accounting diverged: bytes %v, walk %v; entries %v, walk %v",
					got, walkBytes, gotLen, walkLen)
			}
		})
	}
}
