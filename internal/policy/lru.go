package policy

import "webcachesim/internal/container/intlist"

// LRU is Least Recently Used: on replacement it evicts the document that
// has not been referenced for the longest time. LRU considers neither
// document size nor retrieval cost; its strength is pure exploitation of
// recency of reference, which is why it stays competitive in byte hit rate
// (it does not discriminate against large documents).
type LRU struct {
	list intlist.List[*Doc]
}

var _ Policy = (*LRU)(nil)

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (*LRU) Name() string { return "LRU" }

// linkFront puts a document entering the cache at the front of a list,
// using the list node embedded in the Doc.
func linkFront(l *intlist.List[*Doc], doc *Doc) {
	doc.elem.Value = doc
	l.LinkFront(&doc.elem)
}

// Insert implements Policy: new documents enter at the most-recent end.
func (p *LRU) Insert(doc *Doc) {
	linkFront(&p.list, doc)
	doc.meta = &doc.elem
}

// Hit implements Policy: a referenced document moves to the most-recent
// end.
func (p *LRU) Hit(doc *Doc) {
	if e, ok := doc.meta.(*intlist.Element[*Doc]); ok {
		p.list.MoveToFront(e)
	}
}

// Evict implements Policy: the least recently used document is removed.
func (p *LRU) Evict() (*Doc, bool) {
	e := p.list.Back()
	if e == nil {
		return nil, false
	}
	doc := p.list.Remove(e)
	doc.meta = nil
	return doc, true
}

// Peek implements Peeker: the least recently used document, untouched.
func (p *LRU) Peek() (*Doc, bool) {
	e := p.list.Back()
	if e == nil {
		return nil, false
	}
	return e.Value, true
}

// Remove implements Policy.
func (p *LRU) Remove(doc *Doc) {
	if e, ok := doc.meta.(*intlist.Element[*Doc]); ok {
		p.list.Remove(e)
		doc.meta = nil
	}
}

// Len implements Policy.
func (p *LRU) Len() int { return p.list.Len() }

// FIFO evicts in insertion order, ignoring hits entirely. It is the
// classic straw-man baseline: the gap between FIFO and LRU isolates the
// value of recency information.
type FIFO struct {
	list intlist.List[*Doc]
}

var _ Policy = (*FIFO)(nil)

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Policy.
func (*FIFO) Name() string { return "FIFO" }

// Insert implements Policy.
func (p *FIFO) Insert(doc *Doc) {
	linkFront(&p.list, doc)
	doc.meta = &doc.elem
}

// Hit implements Policy: FIFO ignores references.
func (*FIFO) Hit(*Doc) {}

// Evict implements Policy: the oldest insertion is removed.
func (p *FIFO) Evict() (*Doc, bool) {
	e := p.list.Back()
	if e == nil {
		return nil, false
	}
	doc := p.list.Remove(e)
	doc.meta = nil
	return doc, true
}

// Peek implements Peeker: the oldest insertion, untouched.
func (p *FIFO) Peek() (*Doc, bool) {
	e := p.list.Back()
	if e == nil {
		return nil, false
	}
	return e.Value, true
}

// Remove implements Policy.
func (p *FIFO) Remove(doc *Doc) {
	if e, ok := doc.meta.(*intlist.Element[*Doc]); ok {
		p.list.Remove(e)
		doc.meta = nil
	}
}

// Len implements Policy.
func (p *FIFO) Len() int { return p.list.Len() }
