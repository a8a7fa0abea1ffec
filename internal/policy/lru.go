package policy

import "webcachesim/internal/container/intlist"

// recencyList is the core the list-ordered schemes embed: documents enter
// at the front and the back is evicted. A scheme on top of it is what a
// Hit does to the order. Whether a document is tracked is the list's
// knowledge alone — the node embedded in the Doc names the list that
// holds it — so a Hit or Remove for a document this list does not hold
// changes nothing.
type recencyList struct {
	list intlist.List[*Doc]
}

// Insert implements Policy: new documents enter at the front, linked by
// the list node embedded in the Doc.
func (r *recencyList) Insert(doc *Doc) {
	doc.elem.Value = doc
	r.list.LinkFront(&doc.elem)
}

// Evict implements Policy: the document at the back is removed.
func (r *recencyList) Evict() (*Doc, bool) {
	e := r.list.Back()
	if e == nil {
		return nil, false
	}
	return r.list.Remove(e), true
}

// Peek implements Policy: the document at the back, untouched.
func (r *recencyList) Peek() (*Doc, bool) {
	e := r.list.Back()
	if e == nil {
		return nil, false
	}
	return e.Value, true
}

// Remove implements Policy.
func (r *recencyList) Remove(doc *Doc) { r.list.Remove(&doc.elem) }

// Len implements Policy.
func (r *recencyList) Len() int { return r.list.Len() }

// LRU is Least Recently Used: on replacement it evicts the document that
// has not been referenced for the longest time. LRU considers neither
// document size nor retrieval cost; its strength is pure exploitation of
// recency of reference, which is why it stays competitive in byte hit rate
// (it does not discriminate against large documents).
type LRU struct{ recencyList }

var _ Policy = (*LRU)(nil)

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Hit implements Policy: a referenced document moves to the most-recent
// end.
func (p *LRU) Hit(doc *Doc) { p.list.MoveToFront(&doc.elem) }

// FIFO evicts in insertion order, ignoring hits entirely. It is the
// classic straw-man baseline: the gap between FIFO and LRU isolates the
// value of recency information.
type FIFO struct{ recencyList }

var _ Policy = (*FIFO)(nil)

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Hit implements Policy: FIFO ignores references.
func (*FIFO) Hit(*Doc) {}
