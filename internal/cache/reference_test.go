package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"webcachesim/internal/policy"
	"webcachesim/internal/pool"
)

// reference is a single-threaded one-shard cache built from parts of its
// own: a checked policy instance, a map and a byte budget. It picks its
// own victims, so a cache that evicts a different document, or skips a
// policy Hit, ends up with a different resident set.
type reference struct {
	pol                policy.Policy
	capacity, used     int64
	evictions, rejects int64
	resident           map[string]refEntry
	ids                map[string]int32 // one stable ID per key, as the cache's interner keeps
}

// refEntry is a resident document and the cache entry inserted with it,
// whose pooled body the reference counts.
type refEntry struct {
	doc   *policy.Doc
	entry *Entry
}

func (r *reference) insert(key string, size int64, e *Entry) bool {
	if size > r.capacity {
		r.rejects++
		return false
	}
	r.remove(key)
	for r.used+size > r.capacity {
		victim, ok := r.pol.Evict()
		if !ok { // as the cache does when no shard has a victim left
			r.rejects++
			return false
		}
		delete(r.resident, victim.Key)
		r.used -= victim.Size
		r.evictions++
	}
	id, ok := r.ids[key]
	if !ok {
		id = int32(len(r.ids))
		r.ids[key] = id
	}
	doc := &policy.Doc{ID: id, Key: key, Size: size}
	r.pol.Insert(doc)
	r.resident[key] = refEntry{doc, e}
	r.used += size
	return true
}

func (r *reference) get(key string) (*Entry, bool) {
	re, ok := r.resident[key]
	if ok {
		r.pol.Hit(re.doc)
	}
	return re.entry, ok
}

func (r *reference) remove(key string) bool {
	re, ok := r.resident[key]
	if ok {
		r.pol.Remove(re.doc)
		delete(r.resident, key)
		r.used -= re.doc.Size
	}
	return ok
}

// TestCacheMatchesReference drives a one-shard cache and the reference
// with the same seeded operations — inserts and replacements (some larger
// than the whole budget), GetBytes lookups whose references the test
// holds, out-of-order releases, removals — and requires after every one
// the same resident keys, Used, Evictions and Rejects on both sides, and
// a private pool whose outstanding buffers are exactly the bodies still
// resident or held. TestPropertyAccountingMatchesOracle builds its model
// from the cache's own eviction stream, so it cannot see a wrong victim.
func TestCacheMatchesReference(t *testing.T) {
	const capacity = 64 << 10
	for _, scheme := range []string{"lru", "gds:p", "gdstar:p"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", scheme, seed), func(t *testing.T) {
				spec, err := policy.ParseSpec(scheme)
				if err != nil {
					t.Fatal(err)
				}
				f := policy.MustFactory(spec)
				bufs := pool.New()
				c := mustNew(t, Config{Capacity: capacity, Shards: 1, Policy: f})
				ref := &reference{
					pol:      policy.Checked(f.New()),
					capacity: capacity,
					resident: map[string]refEntry{},
					ids:      map[string]int32{},
				}
				rng := rand.New(rand.NewSource(seed))
				var held []*Entry
				for op := 0; op < 4000; op++ {
					k := fmt.Sprintf("http://x/doc%d", rng.Intn(150))
					switch r := rng.Intn(100); {
					case r < 40: // insert or replace; one in twenty exceeds the budget
						size := 1 + rng.Intn(capacity/8)
						if rng.Intn(20) == 0 {
							size = capacity + 1 + rng.Intn(capacity)
						}
						e := NewPooledEntry(&policy.Doc{Key: k, Size: int64(size)}, bufs.Get(size), size, "", 200, time.Time{})
						if got, want := c.Insert(k, e).Stored(), ref.insert(k, int64(size), e); got != want {
							t.Fatalf("op %d: Insert(%q, %d) stored=%v, reference %v", op, k, size, got, want)
						}
						e.Release() // the creator's reference
					case r < 70: // lookup, holding the reference
						e, ok := c.GetBytes([]byte(k))
						want, wantOK := ref.get(k)
						if ok != wantOK || e != want {
							t.Fatalf("op %d: GetBytes(%q) = %p, %v; reference %p, %v", op, k, e, ok, want, wantOK)
						}
						if ok {
							held = append(held, e)
						}
					case r < 85: // release a held reference, out of order
						if len(held) > 0 {
							i := rng.Intn(len(held))
							held[i].Release()
							held = slices.Delete(held, i, i+1)
						}
					default:
						if got, want := c.Remove(k), ref.remove(k); got != want {
							t.Fatalf("op %d: Remove(%q) = %v, reference %v", op, k, got, want)
						}
					}
					checkAgainstReference(t, op, c, ref, bufs, held)
				}
				for _, e := range held {
					e.Release()
				}
				for k := range ref.resident {
					if !c.Remove(k) {
						t.Fatalf("final Remove(%q) found nothing", k)
					}
				}
				if n := bufs.Stats().Outstanding(); n != 0 || c.Used() != 0 || c.Len() != 0 {
					t.Fatalf("drained: %d pooled buffers outstanding, used %d, %d entries", n, c.Used(), c.Len())
				}
			})
		}
	}
}

func checkAgainstReference(t *testing.T, op int, c *Cache, ref *reference, bufs *pool.Pool, held []*Entry) {
	t.Helper()
	var keys, want []string
	c.Each(func(k string, _ *Entry) { keys = append(keys, k) })
	bodies := map[*Entry]bool{}
	for k, re := range ref.resident {
		want = append(want, k)
		bodies[re.entry] = true
	}
	slices.Sort(keys)
	slices.Sort(want)
	if !slices.Equal(keys, want) {
		t.Fatalf("op %d: resident %v, reference %v", op, keys, want)
	}
	if c.Used() != ref.used || c.Evictions() != ref.evictions || c.Rejects() != ref.rejects {
		t.Fatalf("op %d: used/evictions/rejects %d/%d/%d, reference %d/%d/%d", op,
			c.Used(), c.Evictions(), c.Rejects(), ref.used, ref.evictions, ref.rejects)
	}
	for _, e := range held {
		bodies[e] = true
	}
	if got := bufs.Stats().Outstanding(); got != int64(len(bodies)) {
		t.Fatalf("op %d: %d pooled buffers outstanding, want %d resident or held bodies", op, got, len(bodies))
	}
}
