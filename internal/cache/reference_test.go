package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"webcachesim/internal/policy"
	"webcachesim/internal/pool"
	"webcachesim/internal/trace"
)

// reference is a single-threaded sharded cache built from parts of its
// own: one checked policy instance (and admitter) per shard, maps and one
// byte budget. It picks its own victims by the store's rule, so a store
// that evicts a different document, asks a different shard, or skips a
// policy Hit, ends up with a different resident set:
//
//   - the victim comes from the shard with the most resident bytes, a tie
//     keeping the key's home shard;
//   - if that shard has none, the shards are swept in index order from
//     home;
//   - admission judges the candidate against the home shard's Peek().
type reference struct {
	shards                         []refShard
	capacity, used                 int64
	evictions, rejects, admRejects int64
}

// refShard is one shard of the reference.
type refShard struct {
	pol      policy.Policy
	adm      policy.Admitter // nil without admission
	used     int64
	resident map[string]refEntry
}

// refEntry is a resident document and the cache entry inserted with it,
// whose pooled body the reference counts.
type refEntry struct {
	doc   *policy.Doc
	entry *Entry
}

// newReference builds the reference for a store configuration.
func newReference(cfg Config) *reference {
	r := &reference{shards: make([]refShard, cfg.Shards), capacity: cfg.Capacity}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.pol = policy.Checked(cfg.Policy.Name, cfg.Policy.New())
		if cfg.Admission.New != nil {
			sh.adm = cfg.Admission.New(cfg.Capacity / int64(cfg.Shards))
		}
		sh.resident = map[string]refEntry{}
	}
	return r
}

func (r *reference) home(key string) int {
	return int(trace.Hash64(key) & uint64(len(r.shards)-1))
}

func (r *reference) insert(key string, size int64, e *Entry) SetOutcome {
	if size > r.capacity {
		r.rejects++
		return SetRejectedBudget
	}
	r.remove(key)
	h := r.home(key)
	home := &r.shards[h]
	doc := &policy.Doc{ID: -1, Key: key, Size: size}
	if home.adm != nil {
		home.adm.Touch(doc)
		if r.used+size > r.capacity {
			if victim, ok := home.pol.Peek(); ok && !home.adm.Admit(doc, victim) {
				r.admRejects++
				return SetRejectedAdmission
			}
		}
	}
	for r.used+size > r.capacity {
		if !r.evictOne(h) { // as the store does when no shard has a victim left
			r.rejects++
			return SetRejectedBudget
		}
	}
	home.pol.Insert(doc)
	if home.adm != nil {
		home.adm.Inserted(doc)
	}
	home.resident[key] = refEntry{doc, e}
	home.used += size
	r.used += size
	return SetStored
}

// evictOne frees one victim of the fullest shard, or of the first shard
// from home that has one.
func (r *reference) evictOne(home int) bool {
	fullest := home
	for i := range r.shards {
		if r.shards[i].used > r.shards[fullest].used {
			fullest = i
		}
	}
	if r.evictFrom(fullest) {
		return true
	}
	for i := range r.shards {
		if r.evictFrom((home + i) % len(r.shards)) {
			return true
		}
	}
	return false
}

func (r *reference) evictFrom(i int) bool {
	sh := &r.shards[i]
	victim, ok := sh.pol.Evict()
	if !ok {
		return false
	}
	delete(sh.resident, victim.Key)
	sh.used -= victim.Size
	r.used -= victim.Size
	r.evictions++
	if sh.adm != nil {
		sh.adm.Evicted(victim)
	}
	return true
}

func (r *reference) get(key string) (*Entry, bool) {
	sh := &r.shards[r.home(key)]
	re, ok := sh.resident[key]
	if ok {
		if sh.adm != nil {
			sh.adm.Touch(re.doc)
		}
		sh.pol.Hit(re.doc)
	}
	return re.entry, ok
}

func (r *reference) remove(key string) bool {
	sh := &r.shards[r.home(key)]
	re, ok := sh.resident[key]
	if ok {
		sh.pol.Remove(re.doc)
		delete(sh.resident, key)
		sh.used -= re.doc.Size
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
				cfg := Config{Capacity: capacity, Shards: 1, Policy: f}
				c, ref := mustNew(t, cfg), newReference(cfg)
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
						if got, want := c.Insert(k, e), ref.insert(k, int64(size), e); got != want {
							t.Fatalf("op %d: Insert(%q, %d) = %v, reference %v", op, k, size, got, want)
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
				for k := range ref.shards[0].resident {
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
	bodies := checkResidents(t, op, c, ref)
	for _, e := range held {
		bodies[e] = true
	}
	if got := bufs.Stats().Outstanding(); got != int64(len(bodies)) {
		t.Fatalf("op %d: %d pooled buffers outstanding, want %d resident or held bodies", op, got, len(bodies))
	}
}

// checkResidents requires the store and the reference to hold the same
// keys and to agree on every count (checkCounts); it returns the
// reference's resident entries.
func checkResidents(t *testing.T, op int, c *Cache, ref *reference) map[*Entry]bool {
	t.Helper()
	checkCounts(t, op, c, ref)
	var keys, want []string
	for k := range residents(c) {
		keys = append(keys, k)
	}
	bodies := map[*Entry]bool{}
	for _, sh := range ref.shards {
		for k, re := range sh.resident {
			want = append(want, k)
			bodies[re.entry] = true
		}
	}
	slices.Sort(keys)
	slices.Sort(want)
	if !slices.Equal(keys, want) {
		t.Fatalf("op %d: resident %v, reference %v", op, keys, want)
	}
	return bodies
}

// checkCounts requires the store and the reference to agree on Used,
// Evictions, Rejects, AdmissionRejects and the bytes in each shard.
func checkCounts(t *testing.T, op int, c *Cache, ref *reference) {
	t.Helper()
	refUsed := make([]int64, len(ref.shards))
	for i := range refUsed {
		refUsed[i] = ref.shards[i].used
	}
	if got := c.ShardUsed(); !slices.Equal(got, refUsed) {
		t.Fatalf("op %d: shard bytes %v, reference %v", op, got, refUsed)
	}
	if c.Used() != ref.used || c.Evictions() != ref.evictions || c.Rejects() != ref.rejects || c.AdmissionRejects() != ref.admRejects {
		t.Fatalf("op %d: used/evictions/rejects/admission rejects %d/%d/%d/%d, reference %d/%d/%d/%d", op,
			c.Used(), c.Evictions(), c.Rejects(), c.AdmissionRejects(), ref.used, ref.evictions, ref.rejects, ref.admRejects)
	}
}

// TestShardedStoreMatchesReference replays TestShardedStoreRanksLikeOneCache's
// stream through the store and the reference at 1, 4 and 16 shards, for
// every study scheme and GD*(P)+TinyLFU. Every request must hit or miss
// alike and every insert end alike, leaving the same counts and the same
// bytes in every shard; every 500 requests and at the end the resident
// sets must be equal too. (The
// index-order sweep is not reached here: single-threaded, the fullest
// shard always has a victim.)
func TestShardedStoreMatchesReference(t *testing.T) {
	keys, sizes, _, capacity := dfnStream(t)
	for _, s := range storeSchemes(t) {
		for _, shards := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s/shards=%d", s, shards), func(t *testing.T) {
				cfg := Config{Capacity: capacity, Shards: shards, Policy: s.pol, Admission: s.adm}
				c, ref := mustNew(t, cfg), newReference(cfg)
				for i, key := range keys {
					e, ok := c.Get(key)
					want, wantOK := ref.get(key)
					if ok != wantOK || ok && e.Doc.Size != want.Doc.Size {
						t.Fatalf("request %d: Get(%q) resident=%v, reference %v", i, key, ok, wantOK)
					}
					if ok {
						ok = e.Doc.Size == sizes[i]
						e.Release()
					}
					if !ok {
						e := &Entry{Doc: &policy.Doc{Key: key, Size: sizes[i]}}
						if got, want := c.Insert(key, e), ref.insert(key, sizes[i], e); got != want {
							t.Fatalf("request %d: Insert(%q, %d) = %v, reference %v", i, key, sizes[i], got, want)
						}
					}
					if i%500 == 0 || i == len(keys)-1 {
						checkResidents(t, i, c, ref)
					} else {
						checkCounts(t, i, c, ref)
					}
				}
				if c.Evictions() == 0 {
					t.Fatal("no evictions: the replay did not churn the store")
				}
			})
		}
	}
}
