package cache

// idTable is the shard's bounded URL→ID interner. The unbounded
// trace.Interner it replaces retained every URL ever inserted — a slow
// memory leak under unique-URL traffic, where the cache's bytes are
// bounded by capacity but the interner grew one map entry per URL
// forever.
//
// The table keeps the keying contract policies rely on — a URL holds one
// stable dense ID for as long as it is resident, and keeps that ID across
// evict/refetch cycles while its mapping survives — but bounds the
// non-resident tail: an ID whose URL left the cache is "retired", and
// once more than retain retired mappings accumulate, the oldest are
// recycled (mapping dropped, ID reused for a new URL) in FIFO order.
// One-shot URLs therefore cost an interner slot only until they age out
// of the retire window instead of permanently.
//
// Recycling trades a bounded amount of identity aliasing for bounded
// memory: ID-keyed state that outlives residency (GD*'s inter-reference
// estimator, admission ghost directories) can see a recycled ID as a
// returning document. The window is sized so that only URLs evicted long
// ago — beyond what those structures meaningfully remember — get
// recycled.
//
// All methods must be called with the owning shard's lock held.
type idTable struct {
	ids   map[string]int32
	keys  []string
	state []uint8  // per-ID: idPinned, idRetired or idFree
	seq   []uint32 // per-ID retire generation, invalidates stale ring slots
	free  []int32  // recycled IDs ready for reuse

	ring    []ringSlot // FIFO of retired IDs, oldest at head
	head    int
	retired int // live (non-stale) retired entries in the ring
	retain  int // recycle beyond this many retired entries
}

type ringSlot struct {
	id  int32
	seq uint32
}

const (
	idFree uint8 = iota
	idPinned
	idRetired
)

// DefaultInternRetain is the store's retired-mapping budget, split evenly
// across the shards (4,096 per shard at the default 16), so the shard
// count does not change how long an evicted URL keeps its ID. At ~100
// bytes per retained mapping this bounds the non-resident interner tail
// to a few MiB per store.
const DefaultInternRetain = 1 << 16

func newIDTable(retain int) *idTable {
	return &idTable{ids: make(map[string]int32, 64), retain: retain}
}

// pin interns key and marks its ID resident, reviving a retired mapping
// or reusing a recycled ID when one is free. Pinning an already-pinned
// key is a no-op returning the same ID.
func (t *idTable) pin(key string) int32 {
	if id, ok := t.ids[key]; ok {
		if t.state[id] == idRetired {
			t.state[id] = idPinned
			t.retired--
		}
		return id
	}
	if n := len(t.free); n > 0 {
		id := t.free[n-1]
		t.free = t.free[:n-1]
		t.keys[id] = key
		t.ids[key] = id
		t.state[id] = idPinned
		return id
	}
	id := int32(len(t.keys))
	t.keys = append(t.keys, key)
	t.state = append(t.state, idPinned)
	t.seq = append(t.seq, 0)
	t.ids[key] = id
	return id
}

// unpin marks an ID non-resident and recycles the oldest retired
// mappings beyond the retain budget. Unpinning an already-retired or
// free ID is a no-op.
func (t *idTable) unpin(id int32) {
	if int(id) >= len(t.state) || t.state[id] != idPinned {
		return
	}
	t.state[id] = idRetired
	t.seq[id]++
	t.ring = append(t.ring, ringSlot{id: id, seq: t.seq[id]})
	t.retired++
	for t.retired > t.retain && t.head < len(t.ring) {
		slot := t.ring[t.head]
		t.head++
		// A slot is stale when its ID was re-pinned (and possibly
		// re-retired with a newer seq) since it was queued; skip it — the
		// live generation has its own slot further down the ring.
		if t.state[slot.id] == idRetired && t.seq[slot.id] == slot.seq {
			delete(t.ids, t.keys[slot.id])
			t.keys[slot.id] = ""
			t.state[slot.id] = idFree
			t.free = append(t.free, slot.id)
			t.retired--
		}
	}
	// Compact the ring once the consumed prefix dominates, so the queue's
	// memory stays proportional to the live retired population.
	if t.head > len(t.ring)/2 && t.head > 64 {
		n := copy(t.ring, t.ring[t.head:])
		t.ring = t.ring[:n]
		t.head = 0
	}
}

// len returns the number of live URL→ID mappings (pinned + retired).
func (t *idTable) len() int { return len(t.ids) }
