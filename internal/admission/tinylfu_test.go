package admission

import (
	"fmt"
	"testing"

	"webcachesim/internal/policy"
)

// doc builds a document known only by its URL, as the store presents a
// candidate it has not stored: no ID.
func doc(n int, size int64) *policy.Doc {
	return &policy.Doc{Key: fmt.Sprintf("/doc/%d", n), Size: size}
}

func touchN(t *TinyLFU, d *policy.Doc, n int) {
	for i := 0; i < n; i++ {
		t.Touch(d)
	}
}

func TestTinyLFUFrequencyContest(t *testing.T) {
	f := NewTinyLFU(1 << 20)
	hot, cold, victim := doc(1, 100), doc(2, 100), doc(3, 100)
	touchN(f, hot, 3)
	touchN(f, cold, 1)
	touchN(f, victim, 1)

	if !f.Admit(hot, victim) {
		t.Error("hot candidate (3 touches) must displace a 1-touch victim")
	}
	// Ties keep the resident: the victim has proven it can attract hits.
	if f.Admit(cold, victim) {
		t.Error("cold candidate tied with victim must be rejected")
	}
	if got := f.Counts().Rejected; got != 1 {
		t.Errorf("Rejected=%d, want 1", got)
	}
}

func TestTinyLFUGhostBypassAndCounters(t *testing.T) {
	f := NewTinyLFU(1 << 20)
	evictee, victim := doc(1, 100), doc(2, 100)
	touchN(f, victim, 5)
	f.Evicted(evictee)
	if f.GhostLen() != 1 {
		t.Fatalf("GhostLen=%d after one eviction, want 1", f.GhostLen())
	}

	// The just-evicted document re-enters without a frequency contest,
	// even against a much hotter victim.
	if !f.Admit(evictee, victim) {
		t.Fatal("ghost-remembered candidate must be admitted")
	}
	f.Inserted(evictee)
	c := f.Counts()
	if c.GhostHits != 1 || c.Admitted != 1 {
		t.Errorf("counts=%+v, want GhostHits=1 Admitted=1", c)
	}
	if f.GhostLen() != 0 {
		t.Errorf("GhostLen=%d after re-admission, want 0 (entry consumed)", f.GhostLen())
	}
}

// TestTinyLFUResurrectionAfterGhostExpiry is the resurrection edge case:
// once an evicted document's ghost entry has been pushed out by newer
// evictions, it must win the frequency contest again like any stranger.
func TestTinyLFUResurrectionAfterGhostExpiry(t *testing.T) {
	f := NewTinyLFU(1000) // ghost budget = 1000 bytes
	a, victim := doc(1, 400), doc(9, 100)
	touchN(f, victim, 5)

	f.Evicted(a)
	f.Evicted(doc(2, 400))
	f.Evicted(doc(3, 400)) // 1200 > 1000: a's entry expires
	if f.ghost.Contains(a.Key) {
		t.Fatal("ghost entry for a should have expired")
	}
	if f.Admit(a, victim) {
		t.Error("after ghost expiry a cold candidate must lose the contest again")
	}
}

func TestTinyLFUAgingWindow(t *testing.T) {
	f := NewTinyLFU(1 << 20)
	f.window = 4
	d := doc(1, 100)
	touchN(f, d, 4) // 4th touch triggers aging: doorkeeper reset, counts halved
	// Before aging the estimate was 1 (doorkeeper) + 3 (table). After the
	// reset-and-halve it must be 0 + 3/2 = 1.
	if got := f.estimate(d); got != 1 {
		t.Errorf("estimate=%d after aging, want 1", got)
	}
}

// TestTinyLFUTouchZeroAlloc pins Touch at a full frequency table: a key
// that passed the doorkeeper and is not tracked replaces the table's
// minimum, and the replacement reuses the victim's entry and heap handle
// rather than allocating new ones. (Touch is on the proxy's hit path.)
func TestTinyLFUTouchZeroAlloc(t *testing.T) {
	f := NewTinyLFU(1 << 20)
	f.window = 1 << 40 // a window no test reaches: no aging
	docs := make([]*policy.Doc, 2000)
	for i := range docs {
		docs[i] = doc(i, 100)
		touchN(f, docs[i], 2) // the second touch passes the doorkeeper
	}
	tracked := f.freq.Len()
	if tracked >= len(docs) {
		t.Fatalf("frequency table tracks %d of %d keys: it never filled", tracked, len(docs))
	}
	next := 0
	allocs := testing.AllocsPerRun(5000, func() {
		f.Touch(docs[next%len(docs)])
		next++
	})
	if allocs != 0 {
		t.Fatalf("Touch allocates %.1f allocs/op at a full table, want 0", allocs)
	}
	if f.freq.Len() != tracked {
		t.Fatalf("frequency table went from %d to %d entries", tracked, f.freq.Len())
	}
}

// TestAdmittersKeyByURL holds both filters to the keying rule: what an
// admitter remembers about a document is found by its URL alone. A store
// recycles a long-evicted URL's ID for the next new one, so here every
// document carries the same ID and only the URLs tell them apart.
func TestAdmittersKeyByURL(t *testing.T) {
	evicted, stranger, victim := doc(1, 100), doc(2, 100), doc(3, 100)
	for _, d := range []*policy.Doc{evicted, stranger, victim} {
		d.ID = 7
	}

	f := NewTinyLFU(1 << 20)
	touchN(f, victim, 5)
	f.Evicted(evicted)
	if f.Admit(stranger, victim) {
		t.Error("TinyLFU: a stranger sharing an evicted document's ID must not pass as a ghost hit")
	}

	a := NewARCGhost(1000)
	a.Inserted(evicted) // on probation
	a.Touch(stranger)
	if a.ProbationBytes() != 100 {
		t.Errorf("ARC-ghost: a stranger's touch graduated a probation member sharing its ID (ProbationBytes=%d, want 100)", a.ProbationBytes())
	}
	a.Evicted(evicted) // to the recent ghost
	a.Inserted(stranger)
	if got := a.Counts().GhostHits; got != 0 {
		t.Errorf("ARC-ghost: GhostHits=%d for a stranger sharing an evicted document's ID, want 0", got)
	}
}
