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
// it is the H it computes in Insert and Hit. Whether a document is
// tracked is the queue's knowledge alone — its handle points back from
// the heap array — so a Hit or Remove for a document this heap does not
// hold changes nothing.
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

// GreedyDual is the Greedy-Dual procedure behind every value-based scheme
// of the study (DSN-2002 §3): each document is valued at
//
//	H(p) = [L +] ([f(p)] · [c(p)/s(p)])^(1/β)
//
// and the minimum H is evicted. The constructors fix which bracketed
// terms are in:
//
//   - aging adds the cache age L, the H of the last victim: new and
//     re-referenced values are inflated instead of every resident value
//     deflated, an O(1) "subtract H_min from all documents" that lets
//     formerly popular documents age out;
//   - freq multiplies by the reference count f(p), long-term popularity;
//   - a cost model adds the retrieval cost per byte c(p)/s(p);
//   - β, the workload's temporal-correlation index, is 1, or fixed, or —
//     the novel feature of GD* — estimated online, which makes the policy
//     adaptive.
type GreedyDual struct {
	evictHeap
	aging, freq bool
	cost        CostModel // nil: no c/s term

	// beta and its reciprocal are used when estimator is nil.
	beta, invBeta float64
	estimator     *BetaEstimator
}

var _ Policy = (*GreedyDual)(nil)

// newGreedyDual builds the procedure for one setting. A positive finite
// beta fixes the exponent; any other value (zero, negative, NaN, Inf)
// enables the online estimator, since 1/β would otherwise flip or destroy
// the eviction order.
func newGreedyDual(aging, freq bool, cost CostModel, beta float64) *GreedyDual {
	p := &GreedyDual{aging: aging, freq: freq, cost: cost}
	if !(beta > 0) || math.IsInf(beta, 1) {
		p.estimator = NewBetaEstimator()
	} else {
		p.beta, p.invBeta = beta, 1/beta
	}
	return p
}

// NewLFU returns an empty plain LFU policy, H = f without aging; the gap
// between LFU and LFU-DA isolates the value of dynamic aging against cache
// pollution.
func NewLFU() *GreedyDual { return newGreedyDual(false, true, nil, 1) }

// NewLFUDA returns an empty LFU with Dynamic Aging policy (Arlitt et
// al.), H = L + f: frequency under fixed cost and size assumptions.
func NewLFUDA() *GreedyDual { return newGreedyDual(true, true, nil, 1) }

// NewGDS returns an empty Greedy Dual Size policy (Cao & Irani), H = L +
// c/s, under the given cost model (ConstantCost when nil). GDS is size-
// and cost-aware but, like LRU, ignores reference frequency.
func NewGDS(cost CostModel) *GreedyDual {
	if cost == nil {
		cost = ConstantCost{}
	}
	return newGreedyDual(true, false, cost, 1)
}

// NewGDStar returns an empty Greedy Dual* policy (Jin & Bestavros), H =
// L + (f·c/s)^(1/β), under the given cost model (ConstantCost when nil).
// A positive finite beta fixes the exponent; any other value estimates it
// online.
func NewGDStar(cost CostModel, beta float64) *GreedyDual {
	if cost == nil {
		cost = ConstantCost{}
	}
	return newGreedyDual(true, true, cost, beta)
}

// NewGDSF returns an empty GreedyDual-Size with Frequency policy
// (Cherkasova), H = L + f·c/s, under the given cost model (ConstantCost
// when nil): the β = 1 point of GD*, blind to temporal correlation, and
// the variant deployed in Squid. The gap between GDSF and GD* isolates the
// value of the 1/β aging exponent.
func NewGDSF(cost CostModel) *GreedyDual { return NewGDStar(cost, 1) }

// Beta returns the exponent currently in effect.
func (p *GreedyDual) Beta() float64 {
	if p.estimator != nil {
		return p.estimator.Beta()
	}
	return p.beta
}

// value computes H for a document with refs references. With f or c/s
// left out the factor is 1, and 1·x == x and Pow(x, 1) == x exactly, so
// every setting computes the same bits as its own formula would.
func (p *GreedyDual) value(doc *Doc, refs int64) float64 {
	base := 1.0
	if p.freq {
		base = float64(refs)
	}
	if p.cost != nil {
		base = base * p.cost.Cost(doc.Size) / float64(max(doc.Size, 1))
	}
	invBeta := p.invBeta
	if p.estimator != nil {
		invBeta = p.estimator.invBeta
	}
	h := math.Pow(base, invBeta)
	if !p.aging {
		return h
	}
	return finiteH(p.age+h, p.age)
}

// Insert implements Policy.
func (p *GreedyDual) Insert(doc *Doc) {
	if p.estimator != nil {
		p.estimator.Observe(doc)
	}
	p.track(doc, p.value(doc, 1))
}

// Hit implements Policy.
func (p *GreedyDual) Hit(doc *Doc) {
	if p.estimator != nil {
		p.estimator.Observe(doc)
	}
	if refs, ok := p.touch(doc); ok {
		p.queue.Update(&doc.hm.item, p.value(doc, refs))
	}
}

// Size evicts the largest resident document first, the SIZE policy of
// Williams et al.; it maximizes document hit rate at the expense of byte
// hit rate and serves as the size-only extreme in comparisons.
type Size struct{ evictHeap }

var _ Policy = (*Size)(nil)

// NewSize returns an empty SIZE policy.
func NewSize() *Size { return &Size{} }

// Insert implements Policy: priority is the negated size, so the largest
// document is the heap minimum.
func (p *Size) Insert(doc *Doc) { p.track(doc, -float64(doc.Size)) }

// Hit implements Policy: SIZE ignores references.
func (*Size) Hit(*Doc) {}
