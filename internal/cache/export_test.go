package cache

// SetInternRetain sets every shard's retired-mapping budget, so that a
// short replay makes the store recycle IDs as a long one does at
// DefaultInternRetain. Call it before the first Insert.
func SetInternRetain(c *Cache, retain int) {
	for i := range c.shards {
		c.shards[i].ids.retain = retain
	}
}
