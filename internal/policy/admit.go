package policy

// Admitter decides whether a missed document may enter the cache at all.
// It sits in front of a replacement Policy: the cache calls Touch on
// every reference (hit or miss) so the admitter can learn frequencies,
// asks Admit before evicting anything to make room for a candidate, and
// reports Inserted/Evicted as documents actually move so ghost state
// stays in sync.
//
// The calling convention mirrors Policy: one instance per cache (or per
// shard), not safe for concurrent use, no bytes owned. Doc pointers
// follow the same identity contract as Policy — the same document is
// always presented as the same *Doc with the same dense ID.
type Admitter interface {
	// Touch records one reference to doc, resident or not. Call it once
	// per request before Admit/Inserted so frequency estimates include
	// the current reference.
	Touch(doc *Doc)
	// Admit reports whether candidate should displace victim, the
	// document the replacement policy would evict next. A nil victim
	// means space is available without evicting; admitters must accept.
	// Returning false rejects the candidate: the caller must not evict
	// victim and must not insert candidate.
	Admit(candidate, victim *Doc) bool
	// Inserted records that doc entered the cache (after any evictions
	// its admission caused).
	Inserted(doc *Doc)
	// Evicted records that doc left the cache via replacement, so the
	// admitter can remember it in its ghost directory.
	Evicted(doc *Doc)
	// Counts returns the admitter's lifetime decision counters.
	Counts() AdmissionCounts
}

// AdmissionCounts are an Admitter's lifetime decision totals.
type AdmissionCounts struct {
	// Touches is the number of Touch calls.
	Touches int64
	// Admitted is the number of documents allowed in (Inserted calls).
	Admitted int64
	// Rejected is the number of Admit calls that returned false. The
	// caller stops on the first rejection, so this equals the number of
	// rejected inserts.
	Rejected int64
	// GhostHits counts admissions granted because the candidate was in a
	// ghost directory of recently evicted documents.
	GhostHits int64
	// Resets counts aging events (doorkeeper resets, count halvings,
	// adaptation steps), for observability.
	Resets int64
}

// Add accumulates another admitter's counters (e.g. across cache shards).
func (c *AdmissionCounts) Add(o AdmissionCounts) {
	c.Touches += o.Touches
	c.Admitted += o.Admitted
	c.Rejected += o.Rejected
	c.GhostHits += o.GhostHits
	c.Resets += o.Resets
}

// AdmitterFactory creates fresh admitter instances sized for a cache. A
// nil New means "no admission" — every candidate is accepted and no
// admitter is constructed; cache code must treat the two the same way.
type AdmitterFactory struct {
	// Name is the display name of the configured admission scheme
	// ("none" when New is nil).
	Name string
	// New returns a fresh admitter for a cache of capacityBytes. Nil
	// disables admission.
	New func(capacityBytes int64) Admitter
}

// NoAdmission is the identity admitter factory: admit everything.
func NoAdmission() AdmitterFactory { return AdmitterFactory{Name: "none"} }
