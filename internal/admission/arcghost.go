package admission

import "webcachesim/internal/policy"

// ARCGhost adaptation parameters.
const (
	arcInitialTarget = 0.5
	arcMinTarget     = 0.1
	arcMaxTarget     = 0.9
	arcStep          = 0.05
)

// ARCGhost is an adaptive ghost-directed admitter in the spirit of ARC
// (Megiddo & Modha), recast as an admission filter rather than a
// replacement policy so it composes with any scheme. Resident documents
// that have not yet re-referenced form a logical probation segment; a
// probation target p bounds how many bytes of unproven documents the
// cache may hold. An unknown candidate is admitted only while probation
// has room; documents remembered by either ghost directory always
// re-enter.
//
// Two ghost directories provide the feedback that moves p, exactly as
// ARC's B1/B2 do: `recent` remembers documents that left while still
// unproven (including candidates the filter rejected — their second miss
// becomes a ghost hit, so no document can be locked out forever), and
// `proven` remembers documents that had graduated before eviction. A
// ghost hit in `recent` means probation is too small (we discarded a
// document that came back), so p grows; a hit in `proven` means probation
// is squeezing proven documents out, so p shrinks.
type ARCGhost struct {
	recent *Ghost
	proven *Ghost

	// probation maps resident-but-unproven doc IDs to the size they were
	// admitted with (sizes can recharge while resident, so the admitted
	// size is what must be credited back).
	probation map[int32]int64
	probBytes int64
	capacity  int64
	target    float64
	counts    policy.AdmissionCounts
}

var _ policy.Admitter = (*ARCGhost)(nil)

// NewARCGhost builds an adaptive ghost-directed admitter for a cache of
// capacityBytes. Each ghost directory gets half the capacity as its
// budget, mirroring ARC's directory sizing.
func NewARCGhost(capacityBytes int64) *ARCGhost {
	return &ARCGhost{
		recent:    NewGhost(capacityBytes / 2),
		proven:    NewGhost(capacityBytes / 2),
		probation: make(map[int32]int64),
		capacity:  capacityBytes,
		target:    arcInitialTarget,
	}
}

// Touch implements policy.Admitter: a reference to a probationary
// resident graduates it — it has now proven reuse, so it stops counting
// against the probation budget.
func (a *ARCGhost) Touch(doc *policy.Doc) {
	a.counts.Touches++
	if size, ok := a.probation[doc.ID]; ok {
		// Touch runs before Inserted, so the insert-miss reference never
		// sees its own probation entry; a probation member being touched
		// has necessarily been referenced again after admission.
		delete(a.probation, doc.ID)
		a.probBytes -= size
	}
}

// Admit implements policy.Admitter: ghost-remembered documents always
// re-enter; unknown documents are admitted while the probation segment
// is under target, and otherwise rejected — but remembered in the recent
// ghost, so a repeat miss is admitted as a ghost hit.
func (a *ARCGhost) Admit(candidate, victim *policy.Doc) bool {
	if victim == nil {
		return true
	}
	if a.recent.Contains(candidate.ID) || a.proven.Contains(candidate.ID) {
		return true
	}
	if a.probBytes+candidate.Size <= int64(a.target*float64(a.capacity)) {
		return true
	}
	a.recent.Record(candidate.ID, candidate.Size)
	a.counts.Rejected++
	return false
}

// Inserted implements policy.Admitter: ghost hits adapt the probation
// target before the directories forget the document. Documents the
// ghosts vouched for enter as proven; everything else starts on
// probation.
func (a *ARCGhost) Inserted(doc *policy.Doc) {
	a.counts.Admitted++
	switch {
	case a.recent.Contains(doc.ID):
		// An unproven document came back: probation was too small.
		a.counts.GhostHits++
		a.adapt(arcStep)
		a.recent.Remove(doc.ID)
	case a.proven.Contains(doc.ID):
		// A proven document had to re-enter: probation was crowding it.
		a.counts.GhostHits++
		a.adapt(-arcStep)
		a.proven.Remove(doc.ID)
	default:
		a.probation[doc.ID] = doc.Size
		a.probBytes += doc.Size
	}
}

// Evicted implements policy.Admitter: the victim is remembered by the
// ghost directory matching its segment.
func (a *ARCGhost) Evicted(doc *policy.Doc) {
	if size, ok := a.probation[doc.ID]; ok {
		delete(a.probation, doc.ID)
		a.probBytes -= size
		a.recent.Record(doc.ID, doc.Size)
		return
	}
	a.proven.Record(doc.ID, doc.Size)
}

// adapt moves the probation target by delta, clamped to its bounds.
func (a *ARCGhost) adapt(delta float64) {
	a.target += delta
	if a.target < arcMinTarget {
		a.target = arcMinTarget
	}
	if a.target > arcMaxTarget {
		a.target = arcMaxTarget
	}
	a.counts.Resets++
}

// Counts implements policy.Admitter.
func (a *ARCGhost) Counts() policy.AdmissionCounts { return a.counts }

// Target returns the current probation target as a fraction of capacity
// (for tests and instrumentation).
func (a *ARCGhost) Target() float64 { return a.target }

// ProbationBytes returns the bytes currently attributed to unproven
// resident documents.
func (a *ARCGhost) ProbationBytes() int64 { return a.probBytes }
