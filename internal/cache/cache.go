// Package cache implements the proxy's concurrent object store: a sharded
// in-memory cache whose eviction order is decided by the replacement
// policies from internal/policy, with a single global byte budget shared
// by all shards.
//
// Keys are spread across N power-of-two shards by trace.Hash64; each shard
// owns a mutex, an entry map, and a private policy instance, so lookups on
// different shards never contend. Capacity, by contrast, is global: one
// atomic counter holds the resident byte total, and an insert reserves its
// bytes with a compare-and-swap loop before the entry becomes visible.
// The reservation either fits under the budget or forces an eviction —
// from the shard holding the most resident bytes, then sweeping every
// shard — so the resident total NEVER exceeds the configured capacity,
// under any interleaving. That invariant is what the property and race
// tests in this package pin down.
//
// The price of sharding is that eviction order is policy-exact only
// within a shard: the victim is chosen by the policy of whichever shard
// gives one up, not by a globally ordered priority. With one shard the
// cache degrades to the exact single-policy semantics the paper's
// simulator models (and the proxy tests that assert exact LRU order run
// that way). With many shards the order is a per-shard approximation;
// taking each victim from the fullest shard keeps every study scheme's
// hit ratio at 0.95 or more of its one-shard value, where taking it from
// the inserting key's shard cost GD*(1) a third of it
// (TestShardedStoreRanksLikeOneCache, docs/PROXY.md).
package cache

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
	"webcachesim/internal/trace"
)

// DefaultShards is the shard count used when Config.Shards is zero. 16 is
// enough to make shard-lock collisions rare at the concurrency a single
// proxy process sees, while keeping per-shard policy state warm.
const DefaultShards = 16

// maxShards bounds the shard count; beyond this the per-shard maps are so
// sparse that sharding only wastes memory.
const maxShards = 1 << 12

// Config parameterizes a Cache.
type Config struct {
	// Capacity is the global byte budget; it must be positive.
	Capacity int64
	// Shards is the shard count, rounded up to a power of two
	// (DefaultShards when 0).
	Shards int
	// Policy builds one replacement-policy instance per shard; LRU when
	// unset.
	Policy policy.Factory
	// Admission configures an admission filter (see internal/admission):
	// one admitter per shard, each sized for the shard's share of the
	// byte budget. The zero value admits everything.
	Admission policy.AdmitterFactory
}

// Cache is the sharded store. All methods are safe for concurrent use.
type Cache struct {
	capacity   int64
	used       atomic.Int64
	evictions  atomic.Int64
	rejects    atomic.Int64
	admRejects atomic.Int64
	mask       uint64
	shards     []shard

	// classBytes and classObjects are the resident entries per document
	// class, moved by resident as an entry enters or leaves; quiescent,
	// they sum to Used and Len.
	classBytes   [doctype.NumClasses + 1]atomic.Int64
	classObjects [doctype.NumClasses + 1]atomic.Int64
}

// shard is one lock domain: a map of resident entries and the policy that
// orders them for eviction. used mirrors the shard's share of the global
// byte total: it is written only under mu and read lock-free by the
// victim choice (fullest), the scrape and the accounting checks.
type shard struct {
	mu      sync.Mutex
	pol     policy.Policy
	adm     policy.Admitter // nil when admission is disabled
	entries map[string]*Entry
	used    atomic.Int64
	index   int // position in Cache.shards, for the eviction sweep
}

// New creates a cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity %d must be positive", cfg.Capacity)
	}
	if cfg.Policy.New == nil {
		cfg.Policy = policy.MustFactory(policy.Spec{Scheme: "lru"})
	}
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	if n > maxShards {
		return nil, fmt.Errorf("cache: shard count %d exceeds %d", n, maxShards)
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n)) // round up to a power of two
	}
	c := &Cache{
		capacity: cfg.Capacity,
		mask:     uint64(n - 1),
		shards:   make([]shard, n),
	}
	for i := range c.shards {
		c.shards[i] = shard{
			pol:     cfg.Policy.New(),
			entries: make(map[string]*Entry, 64),
			index:   i,
		}
		if cfg.Admission.New != nil {
			// Each shard judges admission against its own share of the
			// budget; its ghost directories see every eviction of their
			// URLs because a key always maps to the same shard.
			c.shards[i].adm = cfg.Admission.New(cfg.Capacity / int64(n))
		}
	}
	return c, nil
}

// shardFor maps a key to its home shard.
func (c *Cache) shardFor(key string) *shard {
	return &c.shards[trace.Hash64(key)&c.mask]
}

// Get returns the entry for key, recording a policy hit when resident.
// The entry is returned with a reference acquired on the caller's
// behalf: the caller must Release it when done with the body (see
// Entry's refcount contract). Acquiring under the shard lock is what
// makes evict-while-serving safe — eviction also runs under this lock,
// so the cache's own reference is still live at the moment the reader's
// is taken.
func (c *Cache) Get(key string) (*Entry, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if ok {
		if sh.adm != nil {
			sh.adm.Touch(e.Doc)
		}
		sh.pol.Hit(e.Doc)
		e.Acquire()
	}
	sh.mu.Unlock()
	return e, ok
}

// GetBytes is Get for a key assembled in a byte buffer. It hashes and
// looks up without converting the key to a string, so a cache hit
// performs no allocation — the zero-allocation serving path's lookup.
func (c *Cache) GetBytes(key []byte) (*Entry, bool) {
	sh := &c.shards[trace.Hash64(key)&c.mask]
	sh.mu.Lock()
	e, ok := sh.entries[string(key)] // compiler-optimized: no conversion alloc
	if ok {
		if sh.adm != nil {
			sh.adm.Touch(e.Doc)
		}
		sh.pol.Hit(e.Doc)
		e.Acquire()
	}
	sh.mu.Unlock()
	return e, ok
}

// Peek returns the entry for key without touching the replacement policy —
// for introspection and tests, not for serving traffic.
func (c *Cache) Peek(key string) (*Entry, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	sh.mu.Unlock()
	return e, ok
}

// SetOutcome reports how Insert disposed of an entry.
type SetOutcome uint8

const (
	// SetStored means the entry is resident.
	SetStored SetOutcome = iota
	// SetRejectedBudget means the byte budget refused the entry: larger
	// than the whole budget, or the budget is held by bytes no shard can
	// free. Counted by Rejects.
	SetRejectedBudget
	// SetRejectedAdmission means the admission filter refused the entry.
	// Counted by AdmissionRejects.
	SetRejectedAdmission
)

// Insert stores an entry under key, evicting as needed to respect the
// byte budget, and reports the outcome: stored, refused by the byte
// budget, or refused by the admission filter. A refusal caches nothing and
// is not an error; the object is simply served uncached.
//
// e.Doc.Key must equal key. A store document has no dense ID: Insert
// sets e.Doc.ID to -1, so the policy and the admitter know it by its URL
// across evict/refetch cycles (see policy.Doc).
func (c *Cache) Insert(key string, e *Entry) SetOutcome {
	size := e.Doc.Size
	if size > c.capacity {
		c.rejects.Add(1)
		return SetRejectedBudget
	}

	// Drop any previous version first so its bytes are free for the
	// reservation below. A concurrent Insert on the same key can interleave
	// here; the insert phase resolves that by replacing whatever version
	// it finds (last writer wins).
	home := c.shardFor(key)
	c.removeFrom(home, key)

	if home.adm != nil && !c.admit(home, e) {
		c.admRejects.Add(1)
		return SetRejectedAdmission
	}

	if !c.reserve(size, home) {
		c.rejects.Add(1)
		return SetRejectedBudget
	}

	home.mu.Lock()
	if old, ok := home.entries[key]; ok {
		home.pol.Remove(old.Doc)
		home.used.Add(-old.Doc.Size)
		c.used.Add(-old.Doc.Size)
		c.resident(old.Doc, -1)
		old.Release()
	}
	e.Doc.ID = -1
	// The cache's own reference: held while resident, released after the
	// entry leaves (eviction, removal, replacement).
	e.Acquire()
	home.entries[key] = e
	home.used.Add(size)
	c.resident(e.Doc, 1)
	home.pol.Insert(e.Doc)
	if home.adm != nil {
		home.adm.Inserted(e.Doc)
	}
	home.mu.Unlock()
	return SetStored
}

// admit runs the home shard's admission filter for a candidate entry by
// the simulator's rule, policy.Admits: only when the global budget is
// actually full, and once, against the home shard's own prospective
// victim, before anything is evicted; while space remains, admission is
// unconditional. With one shard this is exactly the simulator's
// decision. With more, the home shard's victim stands in because its
// filter counts only that shard's keys; the bytes themselves come from
// the fullest shard (evictOne), so the document judged is not always the
// one evicted, and a home shard with nothing to evict admits. The
// decision point is advisory: a concurrent insert can consume the budget
// between this check and the reservation, in which case an admitted
// entry may still be evicting from other shards. That race only ever
// skips the filter in the admit direction, never rejects spuriously.
func (c *Cache) admit(home *shard, e *Entry) bool {
	home.mu.Lock()
	defer home.mu.Unlock()
	home.adm.Touch(e.Doc)
	return c.used.Load()+e.Doc.Size <= c.capacity || policy.Admits(home.adm, home.pol, e.Doc)
}

// reserve claims size bytes of the global budget, evicting until the
// claim fits. The compare-and-swap is the no-overshoot guarantee: the
// budget is only ever raised by a CAS that proves the new total is within
// capacity, so concurrent inserts cannot jointly overshoot. It reports
// false when the budget cannot be freed (no shard has a victim left).
func (c *Cache) reserve(size int64, home *shard) bool {
	for {
		cur := c.used.Load()
		if cur+size <= c.capacity {
			if c.used.CompareAndSwap(cur, cur+size) {
				return true
			}
			continue // lost the race; re-read the budget
		}
		if !c.evictOne(home) {
			return false
		}
	}
}

// evictOne frees one victim, asking the policy of the shard holding the
// most resident bytes first and then sweeping every shard in index order
// from the home shard. Only one shard lock is held at a time, so
// concurrent inserts stealing from each other's shards cannot deadlock.
// It reports false when every shard is empty.
func (c *Cache) evictOne(home *shard) bool {
	if c.fullest(home).evictVictim(c) {
		return true
	}
	for i := range c.shards {
		if c.shards[(home.index+i)&int(c.mask)].evictVictim(c) {
			return true
		}
	}
	return false
}

// fullest returns the shard holding the most resident bytes, read without
// taking any shard lock; a tie keeps home, so a one-shard store evicts
// exactly as a single policy does.
func (c *Cache) fullest(home *shard) *shard {
	best, most := home, home.used.Load()
	for i := range c.shards {
		if u := c.shards[i].used.Load(); u > most {
			best, most = &c.shards[i], u
		}
	}
	return best
}

// evictVictim asks the shard's policy for one victim and releases its
// bytes. It reports false when the policy tracks nothing.
func (sh *shard) evictVictim(c *Cache) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	victim, ok := sh.pol.Evict()
	if !ok {
		return false
	}
	e, ok := sh.entries[victim.Key]
	if !ok || e.Doc != victim {
		// The policy gave up a document the shard no longer maps — a
		// contract violation (policies are exercised against
		// policy.Checked in their own tests). Count nothing; the entry
		// map, not the policy, is the accounting ground truth.
		return true
	}
	delete(sh.entries, victim.Key)
	sh.used.Add(-victim.Size)
	c.used.Add(-victim.Size)
	c.resident(victim, -1)
	c.evictions.Add(1)
	if sh.adm != nil {
		sh.adm.Evicted(victim)
	}
	// Drop the cache's reference last: readers that acquired under this
	// shard's lock keep the body alive, and the pooled buffer returns only
	// when the final one releases.
	e.Release()
	return true
}

// Remove deletes the entry under key, reporting whether it was resident.
func (c *Cache) Remove(key string) bool {
	return c.removeFrom(c.shardFor(key), key)
}

func (c *Cache) removeFrom(sh *shard, key string) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		return false
	}
	sh.pol.Remove(e.Doc)
	delete(sh.entries, key)
	sh.used.Add(-e.Doc.Size)
	c.used.Add(-e.Doc.Size)
	c.resident(e.Doc, -1)
	e.Release()
	return true
}

// resident moves d's class counts by one document: sign is 1 as it
// becomes resident and -1 as it leaves.
func (c *Cache) resident(d *policy.Doc, sign int64) {
	c.classBytes[d.Class].Add(sign * d.Size)
	c.classObjects[d.Class].Add(sign)
}

// Used returns the resident byte total (including bytes reserved by
// in-flight inserts).
func (c *Cache) Used() int64 { return c.used.Load() }

// Evictions returns the number of replacement victims so far.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// Rejects returns the number of Insert calls refused for want of budget.
func (c *Cache) Rejects() int64 { return c.rejects.Load() }

// AdmissionRejects returns the number of Insert calls refused by the
// admission filter.
func (c *Cache) AdmissionRejects() int64 { return c.admRejects.Load() }

// AdmissionCounts aggregates the per-shard admitters' decision counters.
// All zeros when admission is disabled.
func (c *Cache) AdmissionCounts() policy.AdmissionCounts {
	var total policy.AdmissionCounts
	for i := range c.shards {
		sh := &c.shards[i]
		if sh.adm == nil {
			continue
		}
		sh.mu.Lock()
		total.Add(sh.adm.Counts())
		sh.mu.Unlock()
	}
	return total
}

// Shards returns the shard count.
func (c *Cache) Shards() int { return len(c.shards) }

// Len returns the number of resident entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// ShardUsed returns each shard's resident byte count, read lock-free — the
// per-shard occupancy a scrape exports and the accounting invariant (sum
// == Used, quiescent) is checked against.
func (c *Cache) ShardUsed() []int64 {
	out := make([]int64, len(c.shards))
	for i := range c.shards {
		out[i] = c.shards[i].used.Load()
	}
	return out
}

// ClassUsed returns the resident bytes per document class, indexed by
// doctype.Class and read lock-free; once no insert is in flight they sum
// to Used.
func (c *Cache) ClassUsed() []int64 { return loadAll(c.classBytes[:]) }

// ClassLen is ClassUsed for resident entries; quiescent, it sums to Len.
func (c *Cache) ClassLen() []int64 { return loadAll(c.classObjects[:]) }

func loadAll(vs []atomic.Int64) []int64 {
	out := make([]int64, len(vs))
	for i := range vs {
		out[i] = vs[i].Load()
	}
	return out
}
