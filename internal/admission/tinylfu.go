package admission

import (
	"webcachesim/internal/policy"
	"webcachesim/internal/sketch"
)

// tinyLFU sizing heuristics. The sketches are sized from the cache
// capacity via an assumed typical document size, so a bigger cache gets a
// proportionally bigger frequency table — mirroring how the TinyLFU paper
// sizes its sample to a multiple of the cache's item count.
const (
	// assumedDocBytes converts a byte capacity into an expected item
	// count for sketch sizing (the synthetic and DFN traces both have a
	// mean transfer size of a few KiB).
	assumedDocBytes = 4096
	// doorkeeperFPRate is the doorkeeper Bloom filter's false-positive
	// rate; a false positive merely promotes one extra key into the
	// frequency table.
	doorkeeperFPRate = 0.01
	// windowFactor sets the aging window: after windowFactor×items
	// touches the doorkeeper is reset and all counts halve.
	windowFactor = 8
)

// TinyLFU is a frequency-based admission filter in the style of Einziger,
// Friedman & Manes: a candidate displaces the replacement policy's victim
// only if the candidate's estimated request frequency is strictly higher.
// Frequency is estimated in bounded memory by a doorkeeper Bloom filter
// (absorbing the long tail of one-hit wonders) in front of a space-saving
// heavy-hitter table; both are aged periodically — the doorkeeper reset,
// the counts halved — so the estimate tracks the recent window rather
// than all history.
//
// A ghost directory of recently evicted documents softens the filter's
// one failure mode, serial flash crowds: a document that was just evicted
// re-enters without a frequency contest.
type TinyLFU struct {
	door   *sketch.Bloom
	freq   *sketch.SpaceSaving
	ghost  *Ghost
	window int64
	// touches counts Touch calls; the structures age every window of
	// them.
	touches int64
	counts  policy.AdmissionCounts
}

var _ policy.Admitter = (*TinyLFU)(nil)

// NewTinyLFU builds a TinyLFU admitter for a cache of capacityBytes. The
// aging window is windowFactor × the capacity's expected item count
// touches. The ghost directory gets the full cache capacity as its budget.
func NewTinyLFU(capacityBytes int64) *TinyLFU {
	items := capacityBytes / assumedDocBytes
	if items < 512 {
		items = 512
	}
	if items > 1<<20 {
		items = 1 << 20
	}
	door, err := sketch.NewBloom(items, doorkeeperFPRate)
	if err != nil {
		// Unreachable: items and the rate are clamped to valid ranges.
		panic(err)
	}
	ssCap := int(items / 8)
	if ssCap < 128 {
		ssCap = 128
	}
	if ssCap > 1<<16 {
		ssCap = 1 << 16
	}
	freq, err := sketch.NewSpaceSaving(ssCap)
	if err != nil {
		// Unreachable: ssCap is clamped positive.
		panic(err)
	}
	return &TinyLFU{
		door:   door,
		freq:   freq,
		ghost:  NewGhost(capacityBytes),
		window: windowFactor * items,
	}
}

// Touch implements policy.Admitter: the first occurrence of a key in the
// current window only marks the doorkeeper; occurrences after that feed
// the heavy-hitter table. When the window is exhausted both structures
// age.
func (t *TinyLFU) Touch(doc *policy.Doc) {
	t.touches++
	if !t.door.AddIfNew(doc.Key) {
		t.freq.Add(doc.Key)
	}
	if t.touches%t.window == 0 {
		t.door.Reset()
		t.freq.Halve()
	}
}

// estimate returns the document's estimated frequency in the current
// window: one for the doorkeeper bit plus the heavy-hitter count.
func (t *TinyLFU) estimate(doc *policy.Doc) int64 {
	var est int64
	if t.door.Contains(doc.Key) {
		est = 1
	}
	if c, ok := t.freq.Count(doc.Key); ok {
		est += c
	}
	return est
}

// Admit implements policy.Admitter: recently evicted candidates re-enter
// unconditionally; otherwise the candidate must be strictly more popular
// than the victim it displaces. Strict comparison makes the filter
// conservative — on a tie the resident document, which has already proven
// it can attract a hit, stays.
func (t *TinyLFU) Admit(candidate, victim *policy.Doc) bool {
	if t.ghost.Contains(candidate.Key) {
		return true
	}
	if t.estimate(candidate) > t.estimate(victim) {
		return true
	}
	t.counts.Rejected++
	return false
}

// Inserted implements policy.Admitter.
func (t *TinyLFU) Inserted(doc *policy.Doc) {
	t.counts.Admitted++
	if t.ghost.Remove(doc.Key) {
		t.counts.GhostHits++
	}
}

// Evicted implements policy.Admitter: the victim enters the ghost
// directory so an immediate re-reference is not frequency-filtered.
func (t *TinyLFU) Evicted(doc *policy.Doc) {
	t.ghost.Record(doc.Key, doc.Size)
}

// Counts implements policy.Admitter.
func (t *TinyLFU) Counts() policy.AdmissionCounts { return t.counts }

// GhostLen returns the ghost directory's current entry count (for tests
// and instrumentation).
func (t *TinyLFU) GhostLen() int { return t.ghost.Len() }
