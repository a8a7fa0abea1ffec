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

// evictHeap is the core every value-based scheme embeds: documents queued
// by their value H, the minimum evicted, and the victim's H kept as the
// cache age L that the aging schemes add to new values. A scheme on top of
// it is a name plus the H it computes in Insert and Hit. Whether a
// document is tracked is the queue's knowledge alone — its handle points
// back from the heap array — so a Hit or Remove for a document this heap
// does not hold changes nothing.
type evictHeap struct {
	queue pqueue.Queue[*Doc]
	age   float64
}

// track starts the bookkeeping for a document entering the cache:
// reference count one, queued at the given value.
func (h *evictHeap) track(doc *Doc, value float64) {
	m := &doc.hm
	m.refs = 1
	m.item.Value = doc
	h.queue.Push(&m.item, value)
}

// touch counts a reference to a tracked document and returns the new
// count; it reports false, counting nothing, for any other document.
func (h *evictHeap) touch(doc *Doc) (int64, bool) {
	if !h.queue.Holds(&doc.hm.item) {
		return 0, false
	}
	doc.hm.refs++
	return doc.hm.refs, true
}

// Evict implements Policy: the minimum value is removed and becomes the
// new cache age.
func (h *evictHeap) Evict() (*Doc, bool) {
	it, err := h.queue.PopMin()
	if err != nil {
		return nil, false
	}
	h.age = it.Priority()
	return it.Value, true
}

// Peek implements Policy: the minimum-value document, untouched.
func (h *evictHeap) Peek() (*Doc, bool) {
	it, err := h.queue.Min()
	if err != nil {
		return nil, false
	}
	return it.Value, true
}

// Remove implements Policy.
func (h *evictHeap) Remove(doc *Doc) { h.queue.Remove(&doc.hm.item) }

// Len implements Policy.
func (h *evictHeap) Len() int { return h.queue.Len() }

// Age returns the cache age L: the value of the last eviction victim
// (exported for tests and instrumentation).
func (h *evictHeap) Age() float64 { return h.age }

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

// LFUDA is Least Frequently Used with Dynamic Aging: a frequency-based
// policy under fixed cost and size assumptions. Each document carries its
// reference count; the document with the smallest count is evicted. The
// dynamic-aging term avoids cache pollution by formerly popular documents:
// the policy keeps a cache age L, set to the key value of the last evicted
// document, and adds L to a document's reference count whenever the
// document is inserted or referenced.
type LFUDA struct{ evictHeap }

var _ Policy = (*LFUDA)(nil)

// NewLFUDA returns an empty LFU-DA policy.
func NewLFUDA() *LFUDA { return &LFUDA{} }

// Name implements Policy.
func (*LFUDA) Name() string { return "LFU-DA" }

// Insert implements Policy: key = 1 + L.
func (p *LFUDA) Insert(doc *Doc) { p.track(doc, 1+p.age) }

// Hit implements Policy: key = f + L with the incremented count.
func (p *LFUDA) Hit(doc *Doc) {
	if refs, ok := p.touch(doc); ok {
		p.queue.Update(&doc.hm.item, float64(refs)+p.age)
	}
}

// GDS is Greedy Dual Size (Cao & Irani): it values each document at
// H(p) = L + c(p)/s(p) and evicts the minimum H. The inflation offset L —
// set to the H value of each eviction victim — implements the paper's
// "subtract H_min from all documents" step in O(1): instead of deflating
// every resident value, new and re-referenced values are inflated. GDS is
// size- and cost-aware but, like LRU, ignores reference frequency.
type GDS struct {
	evictHeap
	cost CostModel
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
func (p *GDS) Insert(doc *Doc) { p.track(doc, p.value(doc)) }

// Hit implements Policy: the document's H is restored to L + c/s.
func (p *GDS) Hit(doc *Doc) {
	if _, ok := p.touch(doc); ok {
		p.queue.Update(&doc.hm.item, p.value(doc))
	}
}

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
	evictHeap
	family string // display name without the cost tag: "GD*" or "GDSF"
	cost   CostModel

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
		return &GDStar{family: "GD*", cost: cost, estimator: NewBetaEstimator()}
	}
	return &GDStar{family: "GD*", cost: cost, fixedBeta: beta, fixedInvBeta: 1 / beta}
}

// NewGDSF returns an empty GDSF policy — GreedyDual-Size with Frequency
// (Cherkasova), H(p) = L + f(p)·c(p)/s(p) — under the given cost model
// (ConstantCost when nil). It is the β = 1 point of the GD* family:
// frequency-aware and size-aware, but blind to temporal correlation, and
// the variant deployed in Squid. It is included for the related-work
// comparisons (Arlitt et al. [1]); the gap between GDSF and GD* isolates
// the value of the 1/β aging exponent.
func NewGDSF(cost CostModel) *GDStar {
	p := NewGDStar(cost, 1)
	p.family = "GDSF"
	return p
}

// Name implements Policy.
func (p *GDStar) Name() string { return p.family + "(" + p.cost.Tag() + ")" }

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
	p.track(doc, p.value(doc, 1))
}

// Hit implements Policy.
func (p *GDStar) Hit(doc *Doc) {
	if p.estimator != nil {
		p.estimator.Observe(doc.ID)
	}
	if refs, ok := p.touch(doc); ok {
		p.queue.Update(&doc.hm.item, p.value(doc, refs))
	}
}

// LFU is plain Least Frequently Used without aging; the gap between LFU
// and LFU-DA isolates the value of dynamic aging against cache pollution.
type LFU struct{ evictHeap }

var _ Policy = (*LFU)(nil)

// NewLFU returns an empty LFU policy.
func NewLFU() *LFU { return &LFU{} }

// Name implements Policy.
func (*LFU) Name() string { return "LFU" }

// Insert implements Policy.
func (p *LFU) Insert(doc *Doc) { p.track(doc, 1) }

// Hit implements Policy.
func (p *LFU) Hit(doc *Doc) {
	if refs, ok := p.touch(doc); ok {
		p.queue.Update(&doc.hm.item, float64(refs))
	}
}

// Size evicts the largest resident document first, the SIZE policy of
// Williams et al.; it maximizes document hit rate at the expense of byte
// hit rate and serves as the size-only extreme in comparisons.
type Size struct{ evictHeap }

var _ Policy = (*Size)(nil)

// NewSize returns an empty SIZE policy.
func NewSize() *Size { return &Size{} }

// Name implements Policy.
func (*Size) Name() string { return "SIZE" }

// Insert implements Policy: priority is the negated size, so the largest
// document is the heap minimum.
func (p *Size) Insert(doc *Doc) { p.track(doc, -float64(doc.Size)) }

// Hit implements Policy: SIZE ignores references.
func (*Size) Hit(*Doc) {}
