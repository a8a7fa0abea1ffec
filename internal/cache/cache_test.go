package cache

import (
	"fmt"
	"maps"
	"testing"

	"webcachesim/internal/policy"
)

// ent builds an entry of the given size keyed by key.
func ent(key string, size int64) *Entry {
	return &Entry{Doc: &policy.Doc{Key: key, Size: size}, Body: make([]byte, size)}
}

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Capacity: 0}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(Config{Capacity: 100, Shards: maxShards + 1}); err == nil {
		t.Error("absurd shard count accepted")
	}
	c := mustNew(t, Config{Capacity: 100})
	if c.Shards() != DefaultShards {
		t.Errorf("default shards = %d, want %d", c.Shards(), DefaultShards)
	}
	c = mustNew(t, Config{Capacity: 100, Shards: 3})
	if c.Shards() != 4 {
		t.Errorf("shards(3) rounded to %d, want 4", c.Shards())
	}
	c = mustNew(t, Config{Capacity: 100, Shards: 1})
	if c.Shards() != 1 {
		t.Errorf("shards(1) = %d, want 1", c.Shards())
	}
}

func TestSetGetRemove(t *testing.T) {
	c := mustNew(t, Config{Capacity: 1000, Shards: 4})
	if c.Insert("a", ent("a", 100)) != SetStored {
		t.Fatal("set a rejected")
	}
	e, ok := c.Get("a")
	if !ok || string(e.Body) != string(make([]byte, 100)) || e.Doc.Size != 100 {
		t.Fatalf("get a = %v, %v", e, ok)
	}
	if c.Used() != 100 || c.Len() != 1 {
		t.Errorf("used=%d len=%d, want 100, 1", c.Used(), c.Len())
	}
	if !c.Remove("a") {
		t.Error("remove a reported not resident")
	}
	if c.Remove("a") {
		t.Error("second remove reported resident")
	}
	if _, ok := c.Get("a"); ok {
		t.Error("a still resident after remove")
	}
	if c.Used() != 0 || c.Len() != 0 {
		t.Errorf("used=%d len=%d after remove, want 0, 0", c.Used(), c.Len())
	}
}

// TestExactLRUWithOneShard: a single shard preserves the policy's exact
// eviction order — the configuration the paper-fidelity tests rely on.
func TestExactLRUWithOneShard(t *testing.T) {
	c := mustNew(t, Config{Capacity: 200, Shards: 1})
	c.Insert("a", ent("a", 100))
	c.Insert("b", ent("b", 100))
	c.Get("a") // a is now more recent than b
	c.Insert("c", ent("c", 100))
	if _, ok := c.Peek("b"); ok {
		t.Error("LRU victim b still resident")
	}
	if _, ok := c.Peek("a"); !ok {
		t.Error("recently hit a was evicted")
	}
	if c.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", c.Evictions())
	}
}

// TestReplaceSameKey: re-setting a key must not double-count its bytes.
func TestReplaceSameKey(t *testing.T) {
	c := mustNew(t, Config{Capacity: 1000, Shards: 4})
	c.Insert("a", ent("a", 100))
	c.Insert("a", ent("a", 300))
	if c.Used() != 300 || c.Len() != 1 {
		t.Errorf("used=%d len=%d after replace, want 300, 1", c.Used(), c.Len())
	}
	e, _ := c.Get("a")
	if e.Doc.Size != 300 {
		t.Errorf("resident size = %d, want 300", e.Doc.Size)
	}
}

// TestStableDocID: a URL keeps one dense ID across evict/refetch cycles —
// the keying contract GD*'s estimator depends on.
func TestStableDocID(t *testing.T) {
	c := mustNew(t, Config{Capacity: 1000, Shards: 4})
	e1 := ent("a", 100)
	c.Insert("a", e1)
	id := e1.Doc.ID
	c.Remove("a")
	e2 := ent("a", 120)
	c.Insert("a", e2)
	if e2.Doc.ID != id {
		t.Errorf("refetched doc ID = %d, want stable %d", e2.Doc.ID, id)
	}
}

func TestOversizedRejected(t *testing.T) {
	c := mustNew(t, Config{Capacity: 100, Shards: 2})
	if c.Insert("big", ent("big", 101)) == SetStored {
		t.Error("object larger than capacity admitted")
	}
	if c.Rejects() != 1 {
		t.Errorf("rejects = %d, want 1", c.Rejects())
	}
	if c.Used() != 0 {
		t.Errorf("used = %d after reject, want 0", c.Used())
	}
}

// TestCrossShardEviction: when the home shard has nothing to give up, the
// budget is freed from other shards — the global budget dominates shard
// locality.
func TestCrossShardEviction(t *testing.T) {
	// Fill the budget with three objects; with 16 shards they almost
	// surely land on distinct shards, and the fourth key's home shard is
	// likely empty — forcing the eviction sweep across shards.
	c2 := mustNew(t, Config{Capacity: 300, Shards: 16})
	for _, k := range []string{"a", "b", "c"} {
		if c2.Insert(k, ent(k, 100)) != SetStored {
			t.Fatalf("set %s rejected", k)
		}
	}
	if c2.Insert("d", ent("d", 100)) != SetStored {
		t.Fatal("set d rejected despite evictable bytes on other shards")
	}
	if c2.Used() > 300 {
		t.Errorf("used %d exceeds capacity 300", c2.Used())
	}
	var evicted []string
	for _, k := range []string{"a", "b", "c"} {
		if _, ok := c2.Peek(k); !ok {
			evicted = append(evicted, k)
		}
	}
	if len(evicted) != 1 || c2.Evictions() != 1 {
		t.Errorf("evicted %v, Evictions() = %d, want exactly one victim", evicted, c2.Evictions())
	}
	if _, ok := c2.Peek("d"); !ok {
		t.Error("d not resident after cross-shard eviction")
	}
}

// TestShardUsedSumsToTotal: per-shard accounting must reconcile with the
// global budget counter at quiescence.
func TestShardUsedSumsToTotal(t *testing.T) {
	c := mustNew(t, Config{Capacity: 10000, Shards: 8})
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("doc%d", i)
		c.Insert(k, ent(k, int64(50+i)))
	}
	var sum int64
	for _, u := range c.ShardUsed() {
		sum += u
	}
	if sum != c.Used() {
		t.Errorf("sum of shard bytes %d != global used %d", sum, c.Used())
	}
	var walkSum int64
	res := residents(c)
	for _, e := range res {
		walkSum += e.Doc.Size
	}
	if walkSum != c.Used() || len(res) != c.Len() {
		t.Errorf("entry-walk bytes %d (n=%d) != used %d (len=%d)", walkSum, len(res), c.Used(), c.Len())
	}
}

// residents reads every shard's entry map, one shard at a time.
func residents(c *Cache) map[string]*Entry {
	out := map[string]*Entry{}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		maps.Copy(out, sh.entries)
		sh.mu.Unlock()
	}
	return out
}

// TestPolicyPluggablePerShard: each shard runs its own instance of the
// configured scheme (SIZE evicts the largest resident object).
func TestPolicyPluggablePerShard(t *testing.T) {
	c := mustNew(t, Config{
		Capacity: 300,
		Shards:   1,
		Policy:   policy.MustFactory(policy.Spec{Scheme: "size"}),
	})
	c.Insert("small", ent("small", 50))
	c.Insert("big", ent("big", 200))
	c.Insert("mid", ent("mid", 100)) // needs 50 more bytes: SIZE evicts big
	if _, ok := c.Peek("big"); ok {
		t.Error("SIZE policy kept the largest object")
	}
	if _, ok := c.Peek("small"); !ok {
		t.Error("SIZE policy evicted the smallest object")
	}
}
