package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"webcachesim/internal/policy"
)

// TestInternerBounded is the regression test for the unbounded-interner
// leak: a flood of unique one-shot URLs through a small cache must not
// grow the interner past residency plus the configured retain window.
func TestInternerBounded(t *testing.T) {
	const retain = 32
	c, err := New(Config{Capacity: 10 << 10, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.shards[0].ids = newIDTable(retain)
	const n = 10000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("http://example.com/unique/%d", i)
		doc := &policy.Doc{Key: key, Size: 1024}
		c.Insert(key, NewEntry(doc, make([]byte, 1024), "", 200, time.Time{}))
	}
	// Bound: resident entries + retain window + the one-past overshoot the
	// recycling loop allows transiently.
	limit := c.Len() + retain + 1
	if got := c.InternedKeys(); got > limit {
		t.Fatalf("interner holds %d mappings after %d unique inserts; want <= %d", got, n, limit)
	}
}

// TestInternRetainIsStoreWide: the default retain window is the store's,
// not each shard's, so a one-shard store — the paper-exact configuration —
// keeps as many evicted URLs' IDs as the default sixteen shards together.
func TestInternRetainIsStoreWide(t *testing.T) {
	c, err := New(Config{Capacity: 1024, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("http://example.com/unique/%d", i)
		c.Insert(key, &Entry{Doc: &policy.Doc{Key: key, Size: 1024}})
	}
	if c.Evictions() != n-1 {
		t.Fatalf("evictions = %d; want %d (every URL but the last evicted)", c.Evictions(), n-1)
	}
	if got := c.InternedKeys(); got != n {
		t.Fatalf("interner holds %d mappings after %d URLs; want all %d within the %d-mapping window",
			got, n, n, DefaultInternRetain)
	}
}

// TestInternerStableIDWithinWindow checks the keying contract the
// policies rely on: a URL evicted and refetched while its mapping is
// still inside the retain window gets the same dense ID back.
func TestInternerStableIDWithinWindow(t *testing.T) {
	c, err := New(Config{Capacity: 2048, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.shards[0].ids = newIDTable(16)
	insert := func(key string) int32 {
		doc := &policy.Doc{Key: key, Size: 1024}
		if c.Insert(key, NewEntry(doc, make([]byte, 1024), "", 200, time.Time{})) != SetStored {
			t.Fatalf("insert %q refused", key)
		}
		return doc.ID
	}
	id0 := insert("http://example.com/a")
	// Evict /a by filling the 2048-byte budget with two newer objects.
	insert("http://example.com/b")
	insert("http://example.com/c")
	if _, ok := c.Peek("http://example.com/a"); ok {
		t.Fatal("expected /a to be evicted")
	}
	if id := insert("http://example.com/a"); id != id0 {
		t.Fatalf("refetched /a got ID %d; want the retained ID %d", id, id0)
	}
}

// TestIDTableRecycling exercises the pin/unpin state machine directly:
// retired IDs past the retain budget are recycled in FIFO order, a
// revived ID leaves the retired list, and recycled IDs are reused.
func TestIDTableRecycling(t *testing.T) {
	tb := newIDTable(2)
	ids := make([]int32, 5)
	for i := range ids {
		ids[i] = tb.pin(fmt.Sprintf("k%d", i))
	}
	if tb.len() != 5 {
		t.Fatalf("len = %d; want 5", tb.len())
	}
	// Retire k0..k2: k0 falls off the window (retain=2), k1/k2 stay.
	tb.unpin(ids[0])
	tb.unpin(ids[1])
	tb.unpin(ids[2])
	if tb.len() != 4 {
		t.Fatalf("after retiring 3 with retain=2: len = %d; want 4", tb.len())
	}
	if _, ok := tb.ids["k0"]; ok {
		t.Fatal("k0 should have been recycled (oldest retired)")
	}
	// Revive k1, then retire k3 and k4: k1 is no longer retired, so the
	// recycle order is k2 then k3.
	if got := tb.pin("k1"); got != ids[1] {
		t.Fatalf("reviving k1 returned ID %d; want %d", got, ids[1])
	}
	tb.unpin(ids[3])
	tb.unpin(ids[4])
	if _, ok := tb.ids["k2"]; ok {
		t.Fatal("k2 should have been recycled")
	}
	if _, ok := tb.ids["k1"]; !ok {
		t.Fatal("revived k1 must survive recycling (it is pinned again)")
	}
	// A new key reuses a recycled dense ID instead of growing the table.
	newID := tb.pin("k5")
	reused := false
	for _, old := range []int32{ids[0], ids[2], ids[3]} {
		if newID == old {
			reused = true
		}
	}
	if !reused {
		t.Fatalf("new key got ID %d; want one of the recycled IDs", newID)
	}
	// Unpinning a retired or free ID is a no-op, not a corruption.
	tb.unpin(ids[3])
	tb.unpin(newID)
	tb.unpin(newID)
}

// idModel is idTable written the obvious way: retired IDs in a slice,
// oldest first, searched and cut on every revive, and free IDs on a
// stack reused from the top.
type idModel struct {
	ids     map[string]int32
	keys    []string
	retired []int32
	free    []int32
	retain  int
}

func (m *idModel) pin(key string) int32 {
	if id, ok := m.ids[key]; ok {
		m.retired = slices.DeleteFunc(m.retired, func(r int32) bool { return r == id })
		return id
	}
	id := int32(len(m.keys))
	if n := len(m.free); n > 0 {
		id, m.free = m.free[n-1], m.free[:n-1]
		m.keys[id] = key
	} else {
		m.keys = append(m.keys, key)
	}
	m.ids[key] = id
	return id
}

func (m *idModel) unpin(id int32) {
	if int(id) >= len(m.keys) || slices.Contains(m.retired, id) || slices.Contains(m.free, id) {
		return
	}
	m.retired = append(m.retired, id)
	if len(m.retired) > m.retain {
		old := m.retired[0]
		m.retired = m.retired[1:]
		delete(m.ids, m.keys[old])
		m.free = append(m.free, old)
	}
}

// TestIDTableMatchesModel drives idTable and idModel with one random
// sequence of pins and unpins — double unpins, unpins of free and
// never-issued IDs and the empty key among them — and requires every
// returned ID and every len to agree, so the table recycles the same
// IDs in the same order as the model at every retain budget.
func TestIDTableMatchesModel(t *testing.T) {
	for _, retain := range []int{0, 1, 2, 7, 64} {
		tb := newIDTable(retain)
		m := &idModel{ids: map[string]int32{}, retain: retain}
		rng := rand.New(rand.NewSource(int64(retain)))
		for op := 0; op < 20_000; op++ {
			if rng.Intn(2) == 0 {
				key := ""
				if k := rng.Intn(200); k > 0 {
					key = fmt.Sprintf("k%d", k)
				}
				if got, want := tb.pin(key), m.pin(key); got != want {
					t.Fatalf("retain %d, op %d: pin(%q) = %d; model %d", retain, op, key, got, want)
				}
			} else {
				id := int32(rng.Intn(len(m.keys) + 3))
				tb.unpin(id)
				m.unpin(id)
			}
			if tb.len() != len(m.ids) {
				t.Fatalf("retain %d, op %d: len = %d; model %d", retain, op, tb.len(), len(m.ids))
			}
		}
	}
}
