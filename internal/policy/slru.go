package policy

import "webcachesim/internal/container/intlist"

// SLRU is Segmented LRU (Karedla, Love & Wherry): the cache is split into
// a probationary and a protected segment, both LRU-ordered by document
// count. New documents enter probation; a hit promotes a document to the
// protected segment, whose overflow demotes the protected LRU tail back
// to the top of probation. Eviction always takes the probationary tail,
// so documents referenced only once cannot displace re-referenced ones —
// a recency-based answer to the one-hit-wonder problem that LFU-DA solves
// with counts. Included as a related-work baseline.
//
// While SLRU tracks a document, Doc.meta points at the segment list that
// holds the document's embedded list node.
type SLRU struct {
	probation intlist.List[*Doc]
	protected intlist.List[*Doc]
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

// Name implements Policy.
func (*SLRU) Name() string { return "SLRU" }

// Insert implements Policy: new documents enter probation.
func (p *SLRU) Insert(doc *Doc) {
	p.enter(&p.probation, doc)
}

// enter links the document at the front of a segment and records which.
func (p *SLRU) enter(segment *intlist.List[*Doc], doc *Doc) {
	linkFront(segment, doc)
	doc.meta = segment
}

// segmentOf returns the segment tracking the document, or nil when this
// policy does not track it.
func (p *SLRU) segmentOf(doc *Doc) *intlist.List[*Doc] {
	if l, ok := doc.meta.(*intlist.List[*Doc]); ok && (l == &p.probation || l == &p.protected) {
		return l
	}
	return nil
}

// Hit implements Policy: probationary documents are promoted; protected
// documents refresh their recency.
func (p *SLRU) Hit(doc *Doc) {
	switch p.segmentOf(doc) {
	case &p.protected:
		p.protected.MoveToFront(&doc.elem)
	case &p.probation:
		p.probation.Remove(&doc.elem)
		p.enter(&p.protected, doc)
		// Overflowing protected documents fall back to the top of probation.
		for p.protected.Len() > p.maxProtected {
			p.enter(&p.probation, p.protected.Remove(p.protected.Back()))
		}
	}
}

// Evict implements Policy: the probationary LRU tail goes first; a fully
// protected cache falls back to the protected tail.
func (p *SLRU) Evict() (*Doc, bool) {
	if e := p.probation.Back(); e != nil {
		doc := p.probation.Remove(e)
		doc.meta = nil
		return doc, true
	}
	if e := p.protected.Back(); e != nil {
		doc := p.protected.Remove(e)
		doc.meta = nil
		return doc, true
	}
	return nil, false
}

// Peek implements Peeker: the probationary tail (or, when probation is
// empty, the protected tail), untouched.
func (p *SLRU) Peek() (*Doc, bool) {
	if e := p.probation.Back(); e != nil {
		return e.Value, true
	}
	if e := p.protected.Back(); e != nil {
		return e.Value, true
	}
	return nil, false
}

// Remove implements Policy.
func (p *SLRU) Remove(doc *Doc) {
	if segment := p.segmentOf(doc); segment != nil {
		segment.Remove(&doc.elem)
		doc.meta = nil
	}
}

// Len implements Policy.
func (p *SLRU) Len() int { return p.probation.Len() + p.protected.Len() }

// ProtectedLen returns the protected segment's size (for tests).
func (p *SLRU) ProtectedLen() int { return p.protected.Len() }
