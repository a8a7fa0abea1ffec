package policy

import (
	"math"

	"webcachesim/internal/container/pqueue"
)

// heapMeta is the bookkeeping that the value-based schemes hang off a Doc:
// the heap handle plus the document's reference count. It lives embedded
// in the Doc (Doc.hm), handle included, rather than heap-allocated per
// insert — documents cycle in and out of a cache constantly.
type heapMeta struct {
	item pqueue.Item[*Doc]
	refs int64
}

// track starts a value-based scheme's bookkeeping for a document entering
// the cache: reference count one, queued at the given priority.
func track(q *pqueue.Queue[*Doc], doc *Doc, priority float64) {
	m := &doc.hm
	m.refs = 1
	m.item.Value = doc
	q.Push(&m.item, priority)
	doc.meta = m
}

// finiteH guards a computed H value against IEEE edge cases before it
// enters the eviction heap. Degenerate inputs can poison the arithmetic:
// a zero retrieval cost with math.Pow exponents can yield NaN
// (Pow(0, -x) = +Inf, 0·Inf = NaN), and an extreme cost/size ratio can
// overflow. NaN is mapped to floor — the document becomes the cheapest
// victim, matching the intuition that a document with no measurable value
// should leave first — and ±Inf is clamped to the largest finite float so
// the inflation offset L stays finite forever.
func finiteH(h, floor float64) float64 {
	switch {
	case math.IsNaN(h):
		return floor
	case math.IsInf(h, 1):
		return math.MaxFloat64
	case math.IsInf(h, -1):
		return -math.MaxFloat64
	}
	return h
}

// peekMin reports the heap minimum without removing it — the shared Peek
// implementation for the value-based schemes.
func peekMin(q *pqueue.Queue[*Doc]) (*Doc, bool) {
	it, err := q.Min()
	if err != nil {
		return nil, false
	}
	return it.Value, true
}

// LFUDA is Least Frequently Used with Dynamic Aging: a frequency-based
// policy under fixed cost and size assumptions. Each document carries its
// reference count; the document with the smallest count is evicted. The
// dynamic-aging term avoids cache pollution by formerly popular documents:
// the policy keeps a cache age L, set to the key value of the last evicted
// document, and adds L to a document's reference count whenever the
// document is inserted or referenced.
type LFUDA struct {
	queue pqueue.Queue[*Doc]
	age   float64
}

var _ Policy = (*LFUDA)(nil)

// NewLFUDA returns an empty LFU-DA policy.
func NewLFUDA() *LFUDA { return &LFUDA{} }

// Name implements Policy.
func (*LFUDA) Name() string { return "LFU-DA" }

// Insert implements Policy: key = 1 + L.
func (p *LFUDA) Insert(doc *Doc) {
	track(&p.queue, doc, 1+p.age)
}

// Hit implements Policy: key = f + L with the incremented count.
func (p *LFUDA) Hit(doc *Doc) {
	m, ok := doc.meta.(*heapMeta)
	if !ok {
		return
	}
	m.refs++
	p.queue.Update(&m.item, float64(m.refs)+p.age)
}

// Evict implements Policy: the minimum key is removed and becomes the new
// cache age.
func (p *LFUDA) Evict() (*Doc, bool) {
	it, err := p.queue.PopMin()
	if err != nil {
		return nil, false
	}
	p.age = it.Priority()
	doc := it.Value
	doc.meta = nil
	return doc, true
}

// Peek implements Peeker: the minimum-key document, untouched.
func (p *LFUDA) Peek() (*Doc, bool) { return peekMin(&p.queue) }

// Remove implements Policy.
func (p *LFUDA) Remove(doc *Doc) {
	if m, ok := doc.meta.(*heapMeta); ok {
		p.queue.Remove(&m.item)
		doc.meta = nil
	}
}

// Len implements Policy.
func (p *LFUDA) Len() int { return p.queue.Len() }

// Age returns the current dynamic-aging offset L (exported for tests and
// instrumentation).
func (p *LFUDA) Age() float64 { return p.age }

// GDS is Greedy Dual Size (Cao & Irani): it values each document at
// H(p) = L + c(p)/s(p) and evicts the minimum H. The inflation offset L —
// set to the H value of each eviction victim — implements the paper's
// "subtract H_min from all documents" step in O(1): instead of deflating
// every resident value, new and re-referenced values are inflated. GDS is
// size- and cost-aware but, like LRU, ignores reference frequency.
type GDS struct {
	queue pqueue.Queue[*Doc]
	cost  CostModel
	age   float64
}

var _ Policy = (*GDS)(nil)

// NewGDS returns an empty GDS policy under the given cost model
// (ConstantCost when nil).
func NewGDS(cost CostModel) *GDS {
	if cost == nil {
		cost = ConstantCost{}
	}
	return &GDS{cost: cost}
}

// Name implements Policy.
func (p *GDS) Name() string { return "GDS(" + p.cost.Tag() + ")" }

func (p *GDS) value(doc *Doc) float64 {
	size := doc.Size
	if size < 1 {
		size = 1
	}
	return finiteH(p.age+p.cost.Cost(doc.Size)/float64(size), p.age)
}

// Insert implements Policy.
func (p *GDS) Insert(doc *Doc) {
	track(&p.queue, doc, p.value(doc))
}

// Hit implements Policy: the document's H is restored to L + c/s.
func (p *GDS) Hit(doc *Doc) {
	m, ok := doc.meta.(*heapMeta)
	if !ok {
		return
	}
	m.refs++
	p.queue.Update(&m.item, p.value(doc))
}

// Evict implements Policy: the minimum H is removed and inflates L.
func (p *GDS) Evict() (*Doc, bool) {
	it, err := p.queue.PopMin()
	if err != nil {
		return nil, false
	}
	p.age = it.Priority()
	doc := it.Value
	doc.meta = nil
	return doc, true
}

// Peek implements Peeker: the minimum-key document, untouched.
func (p *GDS) Peek() (*Doc, bool) { return peekMin(&p.queue) }

// Remove implements Policy.
func (p *GDS) Remove(doc *Doc) {
	if m, ok := doc.meta.(*heapMeta); ok {
		p.queue.Remove(&m.item)
		doc.meta = nil
	}
}

// Len implements Policy.
func (p *GDS) Len() int { return p.queue.Len() }

// Age returns the current inflation offset L.
func (p *GDS) Age() float64 { return p.age }

// GDStar is Greedy Dual* (Jin & Bestavros): it captures both sources of
// temporal locality by valuing documents at
//
//	H(p) = L + (f(p) · c(p) / s(p))^(1/β)
//
// where f(p) is the reference count (long-term popularity) and β is the
// temporal-correlation index of the workload. β can be fixed, or — the
// novel feature of GD* — estimated online from the reference stream, which
// makes the policy adaptive to changing workload characteristics.
type GDStar struct {
	queue pqueue.Queue[*Doc]
	cost  CostModel
	age   float64

	// fixedBeta and its reciprocal are used when estimator is nil.
	fixedBeta    float64
	fixedInvBeta float64
	estimator    *BetaEstimator
}

var _ Policy = (*GDStar)(nil)

// NewGDStar returns an empty GD* policy under the given cost model
// (ConstantCost when nil). A positive finite beta fixes the exponent; any
// other value (zero, negative, NaN, Inf) enables the online estimator,
// since 1/β would otherwise flip or destroy the eviction order.
func NewGDStar(cost CostModel, beta float64) *GDStar {
	if cost == nil {
		cost = ConstantCost{}
	}
	if !(beta > 0) || math.IsInf(beta, 1) {
		return &GDStar{cost: cost, estimator: NewBetaEstimator()}
	}
	return &GDStar{cost: cost, fixedBeta: beta, fixedInvBeta: 1 / beta}
}

// Name implements Policy.
func (p *GDStar) Name() string { return "GD*(" + p.cost.Tag() + ")" }

// Beta returns the exponent currently in effect.
func (p *GDStar) Beta() float64 {
	if p.estimator != nil {
		return p.estimator.Beta()
	}
	return p.fixedBeta
}

func (p *GDStar) value(doc *Doc, refs int64) float64 {
	size := doc.Size
	if size < 1 {
		size = 1
	}
	invBeta := p.fixedInvBeta
	if p.estimator != nil {
		invBeta = p.estimator.invBeta
	}
	base := float64(refs) * p.cost.Cost(doc.Size) / float64(size)
	return finiteH(p.age+math.Pow(base, invBeta), p.age)
}

// Insert implements Policy.
func (p *GDStar) Insert(doc *Doc) {
	if p.estimator != nil {
		p.estimator.Observe(doc.ID)
	}
	track(&p.queue, doc, p.value(doc, 1))
}

// Hit implements Policy.
func (p *GDStar) Hit(doc *Doc) {
	if p.estimator != nil {
		p.estimator.Observe(doc.ID)
	}
	m, ok := doc.meta.(*heapMeta)
	if !ok {
		return
	}
	m.refs++
	p.queue.Update(&m.item, p.value(doc, m.refs))
}

// Evict implements Policy.
func (p *GDStar) Evict() (*Doc, bool) {
	it, err := p.queue.PopMin()
	if err != nil {
		return nil, false
	}
	p.age = it.Priority()
	doc := it.Value
	doc.meta = nil
	return doc, true
}

// Peek implements Peeker: the minimum-key document, untouched.
func (p *GDStar) Peek() (*Doc, bool) { return peekMin(&p.queue) }

// Remove implements Policy.
func (p *GDStar) Remove(doc *Doc) {
	if m, ok := doc.meta.(*heapMeta); ok {
		p.queue.Remove(&m.item)
		doc.meta = nil
	}
}

// Len implements Policy.
func (p *GDStar) Len() int { return p.queue.Len() }

// Age returns the current inflation offset L.
func (p *GDStar) Age() float64 { return p.age }

// LFU is plain Least Frequently Used without aging; the gap between LFU
// and LFU-DA isolates the value of dynamic aging against cache pollution.
type LFU struct {
	queue pqueue.Queue[*Doc]
}

var _ Policy = (*LFU)(nil)

// NewLFU returns an empty LFU policy.
func NewLFU() *LFU { return &LFU{} }

// Name implements Policy.
func (*LFU) Name() string { return "LFU" }

// Insert implements Policy.
func (p *LFU) Insert(doc *Doc) {
	track(&p.queue, doc, 1)
}

// Hit implements Policy.
func (p *LFU) Hit(doc *Doc) {
	m, ok := doc.meta.(*heapMeta)
	if !ok {
		return
	}
	m.refs++
	p.queue.Update(&m.item, float64(m.refs))
}

// Evict implements Policy.
func (p *LFU) Evict() (*Doc, bool) {
	it, err := p.queue.PopMin()
	if err != nil {
		return nil, false
	}
	doc := it.Value
	doc.meta = nil
	return doc, true
}

// Peek implements Peeker: the minimum-key document, untouched.
func (p *LFU) Peek() (*Doc, bool) { return peekMin(&p.queue) }

// Remove implements Policy.
func (p *LFU) Remove(doc *Doc) {
	if m, ok := doc.meta.(*heapMeta); ok {
		p.queue.Remove(&m.item)
		doc.meta = nil
	}
}

// Len implements Policy.
func (p *LFU) Len() int { return p.queue.Len() }

// Size evicts the largest resident document first, the SIZE policy of
// Williams et al.; it maximizes document hit rate at the expense of byte
// hit rate and serves as the size-only extreme in comparisons.
type Size struct {
	queue pqueue.Queue[*Doc]
}

var _ Policy = (*Size)(nil)

// NewSize returns an empty SIZE policy.
func NewSize() *Size { return &Size{} }

// Name implements Policy.
func (*Size) Name() string { return "SIZE" }

// Insert implements Policy: priority is the negated size, so the largest
// document is the heap minimum.
func (p *Size) Insert(doc *Doc) {
	track(&p.queue, doc, -float64(doc.Size))
}

// Hit implements Policy: SIZE ignores references.
func (*Size) Hit(*Doc) {}

// Evict implements Policy.
func (p *Size) Evict() (*Doc, bool) {
	it, err := p.queue.PopMin()
	if err != nil {
		return nil, false
	}
	doc := it.Value
	doc.meta = nil
	return doc, true
}

// Peek implements Peeker: the minimum-key document, untouched.
func (p *Size) Peek() (*Doc, bool) { return peekMin(&p.queue) }

// Remove implements Policy.
func (p *Size) Remove(doc *Doc) {
	if m, ok := doc.meta.(*heapMeta); ok {
		p.queue.Remove(&m.item)
		doc.meta = nil
	}
}

// Len implements Policy.
func (p *Size) Len() int { return p.queue.Len() }
