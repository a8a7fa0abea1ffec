package policy

import "webcachesim/internal/container/pqueue"

// GDSRenorm is Greedy Dual Size implemented literally as Cao & Irani
// describe it: after evicting the document with minimum H, *all* resident
// H values are reduced by H_min. It is behaviorally equivalent to GDS's
// O(1) inflation-offset implementation (the relative order of H values is
// identical) but pays O(n) per eviction.
//
// It exists for the ablation study (DESIGN.md §6): the equivalence test
// in ablation_test.go pins the correctness of the inflation trick, and
// BenchmarkAblationInflation quantifies what the trick saves.
type GDSRenorm struct {
	queue pqueue.Queue[*Doc]
	cost  CostModel
}

var _ Policy = (*GDSRenorm)(nil)

// NewGDSRenorm returns an empty re-normalizing GDS under the given cost
// model (ConstantCost when nil).
func NewGDSRenorm(cost CostModel) *GDSRenorm {
	if cost == nil {
		cost = ConstantCost{}
	}
	return &GDSRenorm{cost: cost}
}

// Name implements Policy.
func (p *GDSRenorm) Name() string { return "GDS-renorm(" + p.cost.Tag() + ")" }

func (p *GDSRenorm) value(doc *Doc) float64 {
	size := doc.Size
	if size < 1 {
		size = 1
	}
	return finiteH(p.cost.Cost(doc.Size)/float64(size), 0)
}

// Insert implements Policy.
func (p *GDSRenorm) Insert(doc *Doc) {
	track(&p.queue, doc, p.value(doc))
}

// Hit implements Policy: H is restored to c/s (relative to the current,
// already-deflated baseline of zero).
func (p *GDSRenorm) Hit(doc *Doc) {
	m, ok := doc.meta.(*heapMeta)
	if !ok {
		return
	}
	m.refs++
	p.queue.Update(&m.item, p.value(doc))
}

// Evict implements Policy: the minimum H is removed and every remaining
// value is deflated by it — the paper's literal formulation.
func (p *GDSRenorm) Evict() (*Doc, bool) {
	it, err := p.queue.PopMin()
	if err != nil {
		return nil, false
	}
	hMin := it.Priority()
	if hMin != 0 {
		// Deflating every priority by the same amount preserves heap
		// order, so Update (O(log n) each) is wasteful but correct; a
		// direct priority rewrite would need heap internals. This is the
		// deliberately naive implementation the ablation measures.
		for _, item := range p.queue.Items() {
			p.queue.Update(item, item.Priority()-hMin)
		}
	}
	doc := it.Value
	doc.meta = nil
	return doc, true
}

// Peek implements Peeker: the minimum-key document, untouched.
func (p *GDSRenorm) Peek() (*Doc, bool) { return peekMin(&p.queue) }

// Remove implements Policy.
func (p *GDSRenorm) Remove(doc *Doc) {
	if m, ok := doc.meta.(*heapMeta); ok {
		p.queue.Remove(&m.item)
		doc.meta = nil
	}
}

// Len implements Policy.
func (p *GDSRenorm) Len() int { return p.queue.Len() }
