package cache

import (
	"fmt"
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
		c.Set(key, NewEntry(doc, make([]byte, 1024), "", 200, time.Time{}))
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
		c.Set(key, &Entry{Doc: &policy.Doc{Key: key, Size: 1024}})
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
		if !c.Set(key, NewEntry(doc, make([]byte, 1024), "", 200, time.Time{})) {
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
// retired IDs past the retain budget are recycled in FIFO order, revived
// pins invalidate their stale ring slots, and recycled IDs are reused.
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
	// Revive k1, then retire k3 and k4: the stale k1 ring slot must be
	// skipped, so the recycle order is k2 then k3.
	if got := tb.pin("k1"); got != ids[1] {
		t.Fatalf("reviving k1 returned ID %d; want %d", got, ids[1])
	}
	tb.unpin(ids[3])
	tb.unpin(ids[4])
	if _, ok := tb.ids["k2"]; ok {
		t.Fatal("k2 should have been recycled")
	}
	if _, ok := tb.ids["k1"]; !ok {
		t.Fatal("revived k1 must survive recycling (its ring slot is stale)")
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
