// Package policy implements the web cache replacement schemes compared by
// the study — LRU, LFU with Dynamic Aging, Greedy Dual Size, and Greedy
// Dual* — together with the two retrieval-cost models of Section 3
// (constant cost and packet cost) and the online temporal-correlation
// estimator that makes GD* adaptive. A few classic baselines (FIFO, SIZE,
// plain LFU) are included for the related-work comparisons.
//
// A Policy orders cached documents for eviction; it owns no bytes and
// enforces no capacity. The simulator in internal/core tracks occupancy
// and calls Insert/Hit/Evict/Remove as documents move through the cache.
package policy

import (
	"fmt"
	"slices"
	"strings"

	"webcachesim/internal/container/intlist"
	"webcachesim/internal/doctype"
)

// Doc is a cached document as seen by a replacement policy. The simulator
// allocates one Doc per distinct document and passes the same pointer to
// every policy call — including across an evict/re-insert cycle of the
// same document. Policies keep their per-document bookkeeping in the
// unexported fields; whether a policy tracks the document is recorded once,
// by the heap or list that holds it.
type Doc struct {
	// ID is the document's dense identity, or -1 when it has none. The
	// simulator uses the workload's interned doc ID, unique for the whole
	// run; the store sets -1, so a store document is known by Key alone.
	// Only GD*'s inter-reference estimator reads it: a table dense over ID
	// when ID >= 0, a map over Key otherwise.
	ID int32
	// Class is the document's content class, used only for per-type
	// accounting by the simulator.
	Class doctype.Class
	// Size is the document size in bytes charged against cache capacity.
	Size int64

	// hm is the heap-based schemes' bookkeeping (heap handle, reference
	// count) and elem the list-based schemes' list node, both embedded by
	// value so that tracking a document allocates nothing. A Doc is
	// tracked by at most one policy at a time (the simulator runs one
	// policy per replay), so one slot of each suffices — and a tracked Doc
	// must not be copied or moved: the heap and the list point into it.
	//
	// Field order is by use: everything a value-based scheme touches on a
	// hit or when the heap moves the document ends here, within the Doc's
	// first 64 bytes.
	hm   heapMeta
	elem intlist.Element[*Doc]

	// Key is the document's URL, the key of everything an admitter
	// remembers (frequency sketches, ghost directories, probation) and of
	// GD*'s inter-reference history for a document without an ID.
	Key string
}

// Policy decides the eviction order of cached documents.
//
// The contract mirrors how replacement schemes are driven by a proxy:
// Insert is called when a document enters the cache, Hit on every
// reference to a resident document, Evict when space must be freed (it
// removes and returns the victim), and Remove when a document leaves the
// cache for a reason other than replacement (modification, explicit
// invalidation).
//
// Implementations are not safe for concurrent use; the simulator runs one
// policy instance per goroutine.
type Policy interface {
	// Insert adds a document that just entered the cache.
	Insert(doc *Doc)
	// Hit records a reference to a resident document. A Hit for a document
	// the policy does not track is a no-op.
	Hit(doc *Doc)
	// Evict removes and returns the replacement victim. It reports false
	// when the policy tracks no documents.
	Evict() (*Doc, bool)
	// Peek returns the document Evict would remove next, without removing
	// it or changing any state. Admission filters compare a missed document
	// against it before anything is evicted, so that a rejected insert
	// leaves the policy untouched.
	Peek() (*Doc, bool)
	// Remove deletes a resident document from the policy's bookkeeping.
	// Removing an untracked document is a no-op.
	Remove(doc *Doc)
	// Len returns the number of tracked documents.
	Len() int
}

// Factory creates fresh policy instances, so that a sweep can run the same
// scheme at many cache sizes concurrently. It names the scheme; the
// instances it makes carry no name.
type Factory struct {
	// Name is the display name of the configured scheme (e.g. "GD*(1)").
	Name string
	// New returns a fresh, empty policy instance.
	New func() Policy
}

// Spec describes a configured replacement scheme. The zero value selects
// LRU.
type Spec struct {
	// Scheme is one of "lru", "lfuda", "gds", "gdstar", "gdsf", "fifo",
	// "size", "lfu", "slru", "typeaware"; empty selects "lru".
	Scheme string
	// Cost selects the cost model for GDS and GD*: ConstantCost or
	// PacketCost. Ignored by the cost-oblivious schemes.
	Cost CostModel
	// Inner configures the per-class sub-policy when Scheme is
	// "typeaware".
	Inner *Spec
}

// schemeSpellings are the scheme names ParseSpec accepts, in the order its
// refusal lists them.
var schemeSpellings = []string{"lru", "lfuda", "lfu-da", "gds", "gdstar", "gd*", "gdsf", "fifo", "size", "lfu", "slru"}

// ParseSpec parses a scheme specification string of the form
// "scheme[:cost]" — e.g. "lru", "gds:const", "gdstar:packet".
// Recognized cost names are "const"/"1" and "packet"/"p". An option the
// scheme would ignore is an error: a cost model on anything but gds,
// gdstar and gdsf. So is a second option. The type-aware meta-policy
// wraps an inner spec: "typeaware+gdstar:packet". An unknown scheme or
// option is refused with the list of valid spellings.
func ParseSpec(s string) (Spec, error) {
	lower := strings.ToLower(strings.TrimSpace(s))
	if inner, ok := strings.CutPrefix(lower, "typeaware+"); ok {
		innerSpec, err := ParseSpec(inner)
		if err != nil {
			return Spec{}, err
		}
		if innerSpec.Scheme == "typeaware" {
			return Spec{}, fmt.Errorf("policy: typeaware cannot nest")
		}
		return Spec{Scheme: "typeaware", Inner: &innerSpec}, nil
	}
	parts := strings.Split(lower, ":")
	if !slices.Contains(schemeSpellings, parts[0]) {
		return Spec{}, fmt.Errorf("policy: unknown scheme %q (want one of %s, or typeaware+<scheme>)",
			parts[0], strings.Join(schemeSpellings, ", "))
	}
	spec := Spec{Scheme: strings.NewReplacer("-", "", "*", "star").Replace(parts[0]), Cost: ConstantCost{}}
	if len(parts) == 1 {
		return spec, nil
	}
	// An option the scheme would ignore is a mistake, not a variant.
	if spec.Scheme != "gds" && spec.Scheme != "gdstar" && spec.Scheme != "gdsf" {
		return Spec{}, fmt.Errorf("policy: scheme %q takes no option %q (in %q)", spec.Scheme, parts[1], s)
	}
	for i, p := range parts[1:] {
		switch p {
		case "const", "constant", "1":
			spec.Cost = ConstantCost{}
		case "packet", "p":
			spec.Cost = PacketCost{}
		default:
			return Spec{}, fmt.Errorf("policy: unknown option %q in %q (want a cost model: const, constant, 1, packet or p)", p, s)
		}
		if i > 0 {
			return Spec{}, fmt.Errorf("policy: scheme %q takes one cost model (in %q)", spec.Scheme, s)
		}
	}
	return spec, nil
}

// NewFactory builds a Factory from a spec.
func NewFactory(spec Spec) (Factory, error) {
	cost := spec.Cost
	if cost == nil {
		cost = ConstantCost{}
	}
	switch spec.Scheme {
	case "", "lru":
		return Factory{Name: "LRU", New: func() Policy { return NewLRU() }}, nil
	case "lfuda":
		return Factory{Name: "LFU-DA", New: func() Policy { return NewLFUDA() }}, nil
	case "gds":
		name := fmt.Sprintf("GDS(%s)", cost.Tag())
		return Factory{Name: name, New: func() Policy { return NewGDS(cost) }}, nil
	case "gdstar":
		name := fmt.Sprintf("GD*(%s)", cost.Tag())
		return Factory{Name: name, New: func() Policy { return NewGDStar(cost, 0) }}, nil
	case "gdsf":
		name := fmt.Sprintf("GDSF(%s)", cost.Tag())
		return Factory{Name: name, New: func() Policy { return NewGDSF(cost) }}, nil
	case "fifo":
		return Factory{Name: "FIFO", New: func() Policy { return NewFIFO() }}, nil
	case "size":
		return Factory{Name: "SIZE", New: func() Policy { return NewSize() }}, nil
	case "lfu":
		return Factory{Name: "LFU", New: func() Policy { return NewLFU() }}, nil
	case "slru":
		return Factory{Name: "SLRU", New: func() Policy { return NewSLRU(0) }}, nil
	case "typeaware":
		if spec.Inner == nil {
			return Factory{}, fmt.Errorf("policy: typeaware requires an inner scheme (typeaware+<spec>)")
		}
		inner, err := NewFactory(*spec.Inner)
		if err != nil {
			return Factory{}, err
		}
		name := "TA[" + inner.Name + "]"
		return Factory{Name: name, New: func() Policy { return NewTypeAware(inner) }}, nil
	default:
		return Factory{}, fmt.Errorf("policy: unknown scheme %q", spec.Scheme)
	}
}

// MustFactory is NewFactory for statically known specs; it panics on
// error and is intended for package-level experiment tables.
func MustFactory(spec Spec) Factory {
	f, err := NewFactory(spec)
	if err != nil {
		panic(err)
	}
	return f
}

// StudyFactories returns the six configurations compared in the paper, in
// presentation order: LRU, LFU-DA, GDS(1), GD*(1), GDS(P), GD*(P).
func StudyFactories() []Factory {
	return []Factory{
		MustFactory(Spec{Scheme: "lru"}),
		MustFactory(Spec{Scheme: "lfuda"}),
		MustFactory(Spec{Scheme: "gds", Cost: ConstantCost{}}),
		MustFactory(Spec{Scheme: "gdstar", Cost: ConstantCost{}}),
		MustFactory(Spec{Scheme: "gds", Cost: PacketCost{}}),
		MustFactory(Spec{Scheme: "gdstar", Cost: PacketCost{}}),
	}
}
