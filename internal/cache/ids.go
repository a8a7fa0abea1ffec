package cache

import "webcachesim/internal/container/intlist"

// idTable is the shard's bounded URL→ID interner. An unbounded interner
// would keep every URL ever inserted, one map entry per URL forever under
// unique-URL traffic, while the cache's bytes stay bounded by capacity.
//
// A URL holds one stable dense ID for as long as it is resident, and
// keeps that ID across evict/refetch cycles while its mapping survives.
// An ID whose URL left the cache is retired; once more than retain IDs
// are retired, the one retired longest ago is recycled: its mapping is
// dropped and the ID goes to the next new URL. A one-shot URL therefore
// costs a mapping only until it ages out of the retire window.
//
// Recycling trades identity for bounded memory. An ID is pinned only
// when the store makes its URL resident, and ID-keyed state that
// outlives residency takes a recycled ID's new URL for the old one
// returning. Admission keys by URL and so never sees it; GD*'s
// inter-reference estimator does, and on long streams its β moves away
// from the simulator's (docs/PROXY.md, the ID-recycling tables).
//
// Each ID gets one list node when it is first issued. The list the node
// is in says what the ID is: retired (newest at the front), free (reused
// newest first), or in no list while pinned.
//
// All methods must be called with the owning shard's lock held.
type idTable struct {
	ids     map[string]int32
	keys    []string
	nodes   []*intlist.Element[int32]
	retired intlist.List[int32]
	free    intlist.List[int32]
	retain  int // recycle beyond this many retired IDs
}

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
		t.retired.Remove(t.nodes[id]) // a no-op unless the ID is retired
		return id
	}
	id := int32(len(t.keys))
	if e := t.free.Front(); e != nil {
		id = t.free.Remove(e)
		t.keys[id] = key
	} else {
		t.keys = append(t.keys, key)
		t.nodes = append(t.nodes, &intlist.Element[int32]{Value: id})
	}
	t.ids[key] = id
	return id
}

// unpin retires a pinned ID and recycles the oldest retired ID beyond
// the retain budget. Unpinning a retired, free or never-issued ID is a
// no-op.
func (t *idTable) unpin(id int32) {
	if int(id) >= len(t.nodes) || t.nodes[id].List() != nil {
		return
	}
	t.retired.LinkFront(t.nodes[id])
	if t.retired.Len() > t.retain {
		old := t.retired.Back()
		t.retired.Remove(old)
		delete(t.ids, t.keys[old.Value])
		t.keys[old.Value] = ""
		t.free.LinkFront(old)
	}
}

// len returns the number of live URL→ID mappings (pinned + retired).
func (t *idTable) len() int { return len(t.ids) }
