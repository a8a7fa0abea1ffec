package policy

// SLRU is Segmented LRU (Karedla, Love & Wherry): the cache is split into
// a probationary and a protected segment, both LRU-ordered by document
// count. New documents enter probation; a hit promotes a document to the
// protected segment, whose overflow demotes the protected LRU tail back
// to the top of probation. Eviction always takes the probationary tail,
// so documents referenced only once cannot displace re-referenced ones —
// a recency-based answer to the one-hit-wonder problem that LFU-DA solves
// with counts. Included as a related-work baseline.
//
// Which segment tracks a document is read off the document's embedded
// list node, so a Hit or Remove for a document held elsewhere is a no-op.
type SLRU struct {
	probation recencyList
	protected recencyList
	// maxProtected bounds the protected segment (in documents).
	maxProtected int
}

var _ Policy = (*SLRU)(nil)

// NewSLRU returns an empty SLRU whose protected segment holds up to
// maxProtected documents (a size-based bound would need byte accounting
// the Policy interface deliberately leaves to the simulator; the document
// bound approximates it). maxProtected <= 0 selects 1024.
func NewSLRU(maxProtected int) *SLRU {
	if maxProtected <= 0 {
		maxProtected = 1024
	}
	return &SLRU{maxProtected: maxProtected}
}

// Insert implements Policy: new documents enter probation.
func (p *SLRU) Insert(doc *Doc) { p.probation.Insert(doc) }

// Hit implements Policy: probationary documents are promoted; protected
// documents refresh their recency.
func (p *SLRU) Hit(doc *Doc) {
	switch doc.elem.List() {
	case &p.protected.list:
		p.protected.list.MoveToFront(&doc.elem)
	case &p.probation.list:
		p.probation.Remove(doc)
		p.protected.Insert(doc)
		// Overflowing protected documents fall back to the top of probation.
		for p.protected.Len() > p.maxProtected {
			tail := &p.protected.list
			p.probation.Insert(tail.Remove(tail.Back()))
		}
	}
}

// Evict implements Policy: the probationary LRU tail goes first; a fully
// protected cache falls back to the protected tail.
func (p *SLRU) Evict() (*Doc, bool) {
	if doc, ok := p.probation.Evict(); ok {
		return doc, true
	}
	return p.protected.Evict()
}

// Peek implements Policy: the probationary tail (or, when probation is
// empty, the protected tail), untouched.
func (p *SLRU) Peek() (*Doc, bool) {
	if doc, ok := p.probation.Peek(); ok {
		return doc, true
	}
	return p.protected.Peek()
}

// Remove implements Policy: a segment ignores a node it does not hold.
func (p *SLRU) Remove(doc *Doc) {
	p.probation.Remove(doc)
	p.protected.Remove(doc)
}

// Len implements Policy.
func (p *SLRU) Len() int { return p.probation.Len() + p.protected.Len() }

// ProtectedLen returns the protected segment's size (for tests).
func (p *SLRU) ProtectedLen() int { return p.protected.Len() }
