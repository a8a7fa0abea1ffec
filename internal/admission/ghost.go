package admission

import "webcachesim/internal/container/intlist"

// ghostEntry is one remembered eviction: the document's URL and the size
// it had when it left the cache.
type ghostEntry struct {
	key  string
	size int64
}

// Ghost is a directory of recently evicted documents: URLs and sizes
// only, no bodies. It is LRU-ordered under a byte budget expressed in
// terms of the sizes of the documents it remembers, so the ghost
// "shadows" roughly as much history as a real cache of the same capacity
// would hold — the standard sizing for ARC's B1/B2 directories.
//
// A ghost is keyed by URL: the store's IDs name resident documents only
// (policy.Doc).
//
// Ghost is not safe for concurrent use; the sharded cache keeps one per
// shard.
type Ghost struct {
	list    intlist.List[ghostEntry]
	entries map[string]*intlist.Element[ghostEntry]
	bytes   int64
	budget  int64
}

// NewGhost returns an empty ghost directory that remembers evictions
// totalling up to budgetBytes of (former) document bytes. A non-positive
// budget yields a ghost that remembers nothing.
func NewGhost(budgetBytes int64) *Ghost {
	return &Ghost{
		entries: make(map[string]*intlist.Element[ghostEntry]),
		budget:  budgetBytes,
	}
}

// Record remembers that the document was evicted with the given size,
// refreshing its position if it is already remembered. Recording evicts
// the oldest ghost entries to stay within budget; a document larger than
// the whole budget is not recorded at all.
func (g *Ghost) Record(key string, size int64) {
	if size < 0 {
		size = 0
	}
	if size > g.budget {
		g.Remove(key)
		return
	}
	if e, ok := g.entries[key]; ok {
		g.bytes += size - e.Value.size
		e.Value.size = size
		g.list.MoveToFront(e)
	} else {
		g.entries[key] = g.list.PushFront(ghostEntry{key: key, size: size})
		g.bytes += size
	}
	for g.bytes > g.budget {
		oldest := g.list.Back()
		if oldest == nil {
			break
		}
		g.dropElement(oldest)
	}
}

// Contains reports whether the document is remembered.
func (g *Ghost) Contains(key string) bool {
	_, ok := g.entries[key]
	return ok
}

// Remove forgets the document (e.g. because it was re-admitted and is
// resident again) and reports whether it was remembered.
func (g *Ghost) Remove(key string) bool {
	e, ok := g.entries[key]
	if ok {
		g.dropElement(e)
	}
	return ok
}

func (g *Ghost) dropElement(e *intlist.Element[ghostEntry]) {
	ent := g.list.Remove(e)
	delete(g.entries, ent.key)
	g.bytes -= ent.size
}

// Len returns the number of remembered documents.
func (g *Ghost) Len() int { return g.list.Len() }

// Bytes returns the remembered documents' total size.
func (g *Ghost) Bytes() int64 { return g.bytes }
