package policy

import "webcachesim/internal/doctype"

// TypeAware is the study's future-work extension: a meta-policy that
// partitions the cache logically by document class and adapts each
// class's byte budget to the observed traffic mix.
//
// The paper's adaptivity study (Figure 1) shows the two failure modes of
// type-oblivious schemes: GD*(1) starves large multi-media/application
// documents (high hit rate, poor byte hit rate), while LRU lets them take
// their full byte share (the reverse). TypeAware makes that trade-off
// explicit and self-adjusting: each class runs its own replacement scheme
// over its own documents, budgets track an exponentially weighted moving
// average of each class's share of requested bytes, and eviction always
// takes the victim from the class that most exceeds its budget.
//
// TypeAware implements Policy, so it plugs into the simulator, the sweep
// runner, and the live proxy like any base scheme.
type TypeAware struct {
	subs    [doctype.NumClasses + 1]Policy
	used    [doctype.NumClasses + 1]int64
	traffic [doctype.NumClasses + 1]float64
	name    string
	ops     int
}

var _ Policy = (*TypeAware)(nil)

// typeAwareDecayEvery bounds how often traffic counters are halved, which
// makes the budget an EWMA with a horizon of a few thousand references.
const typeAwareDecayEvery = 4096

// NewTypeAware builds a type-aware meta-policy whose per-class
// sub-policies come from inner.
func NewTypeAware(inner Factory) *TypeAware {
	t := &TypeAware{name: "TA[" + inner.Name + "]"}
	for _, cl := range doctype.Classes {
		t.subs[cl] = inner.New()
	}
	return t
}

// Name implements Policy.
func (t *TypeAware) Name() string { return t.name }

// sub returns the sub-policy for a document, mapping any unclassified
// document to Other so no document is ever lost.
func (t *TypeAware) sub(doc *Doc) (Policy, doctype.Class) {
	cl := doc.Class
	if cl == doctype.Unknown || int(cl) >= len(t.subs) || t.subs[cl] == nil {
		cl = doctype.Other
	}
	return t.subs[cl], cl
}

// Insert implements Policy.
func (t *TypeAware) Insert(doc *Doc) {
	sub, cl := t.sub(doc)
	sub.Insert(doc)
	t.used[cl] += doc.Size
	t.observe(cl, doc.Size)
}

// Hit implements Policy.
func (t *TypeAware) Hit(doc *Doc) {
	sub, cl := t.sub(doc)
	sub.Hit(doc)
	t.observe(cl, doc.Size)
}

// observe feeds the budget EWMA with one reference's byte volume.
func (t *TypeAware) observe(cl doctype.Class, size int64) {
	t.traffic[cl] += float64(size)
	t.ops++
	if t.ops%typeAwareDecayEvery == 0 {
		for i := range t.traffic {
			t.traffic[i] *= 0.5
		}
	}
}

// victimClass returns the class the next eviction victim comes from: the
// one with the highest used-bytes to byte-budget ratio among classes that
// hold documents, or Unknown when every class is empty.
func (t *TypeAware) victimClass() doctype.Class {
	var total float64
	for _, cl := range doctype.Classes {
		total += t.traffic[cl]
	}
	bestClass := doctype.Unknown
	bestRatio := -1.0
	for _, cl := range doctype.Classes {
		if t.subs[cl].Len() == 0 {
			continue
		}
		target := 0.0
		if total > 0 {
			target = t.traffic[cl] / total
		}
		// A class with (almost) no observed traffic but resident bytes is
		// maximally over budget; the epsilon keeps the ratio finite.
		const epsilon = 1e-9
		ratio := float64(t.used[cl]) / (target + epsilon)
		if ratio > bestRatio {
			bestRatio = ratio
			bestClass = cl
		}
	}
	return bestClass
}

// Evict implements Policy: the victim comes from the class with the
// highest used-bytes to byte-budget ratio among classes that hold
// documents.
func (t *TypeAware) Evict() (*Doc, bool) {
	bestClass := t.victimClass()
	if bestClass == doctype.Unknown {
		return nil, false
	}
	victim, ok := t.subs[bestClass].Evict()
	if !ok {
		return nil, false
	}
	t.used[bestClass] -= victim.Size
	return victim, true
}

// Peek implements Policy: the most-over-budget class's own victim,
// untouched.
func (t *TypeAware) Peek() (*Doc, bool) {
	bestClass := t.victimClass()
	if bestClass == doctype.Unknown {
		return nil, false
	}
	return t.subs[bestClass].Peek()
}

// Remove implements Policy.
func (t *TypeAware) Remove(doc *Doc) {
	sub, cl := t.sub(doc)
	before := sub.Len()
	sub.Remove(doc)
	if sub.Len() < before {
		t.used[cl] -= doc.Size
	}
}

// Len implements Policy.
func (t *TypeAware) Len() int {
	n := 0
	for _, cl := range doctype.Classes {
		n += t.subs[cl].Len()
	}
	return n
}

// UsedBytes returns the resident byte total attributed to a class
// (exported for instrumentation and tests).
func (t *TypeAware) UsedBytes(cl doctype.Class) int64 {
	if int(cl) >= len(t.used) {
		return 0
	}
	return t.used[cl]
}

// BudgetShare returns the class's current byte-budget share in [0, 1].
func (t *TypeAware) BudgetShare(cl doctype.Class) float64 {
	var total float64
	for _, c := range doctype.Classes {
		total += t.traffic[c]
	}
	if total == 0 || int(cl) >= len(t.traffic) {
		return 0
	}
	return t.traffic[cl] / total
}
