package policy

import (
	"strings"
	"testing"
)

// checkedFactory runs f's policies under Checked: the way a test asks for
// the contract checker.
func checkedFactory(f Factory) Factory {
	return Factory{Name: f.Name, New: func() Policy { return Checked(f.Name, f.New()) }}
}

// fakePolicy is a minimal correct Policy used as the base for the buggy
// mutants below: a plain slice in insertion order, evicting the oldest.
type fakePolicy struct {
	docs []*Doc
}

func (f *fakePolicy) Insert(doc *Doc) { f.docs = append(f.docs, doc) }

func (f *fakePolicy) Hit(*Doc) {}

func (f *fakePolicy) Evict() (*Doc, bool) {
	if len(f.docs) == 0 {
		return nil, false
	}
	victim := f.docs[0]
	f.docs = f.docs[1:]
	return victim, true
}

func (f *fakePolicy) Peek() (*Doc, bool) {
	if len(f.docs) == 0 {
		return nil, false
	}
	return f.docs[0], true
}

func (f *fakePolicy) Remove(doc *Doc) {
	for i, d := range f.docs {
		if d == doc {
			f.docs = append(f.docs[:i], f.docs[i+1:]...)
			return
		}
	}
}

func (f *fakePolicy) Len() int { return len(f.docs) }

// Buggy mutants, one per contract violation class.

// lyingLen reports one more document than it holds.
type lyingLen struct{ fakePolicy }

func (p *lyingLen) Len() int { return len(p.docs) + 1 }

// evictsUntracked returns a document that was never inserted.
type evictsUntracked struct{ fakePolicy }

func (p *evictsUntracked) Evict() (*Doc, bool) { return &Doc{Key: "phantom"}, true }

// evictsNil claims success but hands back a nil victim.
type evictsNil struct{ fakePolicy }

func (p *evictsNil) Evict() (*Doc, bool) { return nil, true }

// refusesEvict reports empty even while holding documents.
type refusesEvict struct{ fakePolicy }

func (p *refusesEvict) Evict() (*Doc, bool) { return nil, false }

// leakyRemove acknowledges Remove but keeps the document, so Len does not
// shrink.
type leakyRemove struct{ fakePolicy }

func (p *leakyRemove) Remove(*Doc) {}

// wantViolation runs fn and asserts it panics with a *ContractError that
// names the scheme as Checked was told ("fake") and whose Op and Detail
// match.
func wantViolation(t *testing.T, op, detailFrag string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want ContractError for %s (%s)", op, detailFrag)
		}
		ce, ok := r.(*ContractError)
		if !ok {
			t.Fatalf("panic = %v (%T), want *ContractError", r, r)
		}
		if ce.Policy != "fake" {
			t.Errorf("ContractError.Policy = %q, want fake", ce.Policy)
		}
		if ce.Op != op {
			t.Errorf("ContractError.Op = %q, want %q", ce.Op, op)
		}
		if !strings.Contains(ce.Detail, detailFrag) {
			t.Errorf("ContractError.Detail = %q, want substring %q", ce.Detail, detailFrag)
		}
		if msg := ce.Error(); !strings.Contains(msg, "contract violation") {
			t.Errorf("Error() = %q, want it to mention the contract", msg)
		}
	}()
	fn()
}

func TestCheckedCleanPolicyPassesThrough(t *testing.T) {
	p := Checked("fake", &fakePolicy{})
	a, b := &Doc{Key: "a", Size: 1}, &Doc{Key: "b", Size: 2}
	p.Insert(a)
	p.Insert(b)
	p.Hit(a)
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	victim, ok := p.Evict()
	if !ok || victim != a {
		t.Fatalf("Evict = %v, %v; want doc a, true", victim, ok)
	}
	p.Remove(b)
	p.Remove(b) // contract: removing an untracked document is a no-op
	if p.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", p.Len())
	}
	if _, ok := p.Evict(); ok {
		t.Error("Evict on empty reported ok = true")
	}
}

func TestCheckedIdempotentWrap(t *testing.T) {
	p := Checked("fake", &fakePolicy{})
	if again := Checked("fake", p); again != p {
		t.Error("Checked(Checked(p)) allocated a second wrapper")
	}
}

func TestCheckedCatchesDoubleInsert(t *testing.T) {
	p := Checked("fake", &fakePolicy{})
	d := &Doc{Key: "dup"}
	p.Insert(d)
	wantViolation(t, "Insert", "double insert", func() { p.Insert(d) })
}

func TestCheckedCatchesNilInsert(t *testing.T) {
	p := Checked("fake", &fakePolicy{})
	wantViolation(t, "Insert", "nil document", func() { p.Insert(nil) })
}

func TestCheckedCatchesLyingLen(t *testing.T) {
	p := Checked("fake", &lyingLen{})
	wantViolation(t, "Insert", "tracked", func() { p.Insert(&Doc{Key: "a"}) })
}

func TestCheckedCatchesEvictUntracked(t *testing.T) {
	p := Checked("fake", &evictsUntracked{})
	p.Insert(&Doc{Key: "real"})
	wantViolation(t, "Evict", "untracked", func() { _, _ = p.Evict() })
}

func TestCheckedCatchesEvictNilVictim(t *testing.T) {
	p := Checked("fake", &evictsNil{})
	p.Insert(&Doc{Key: "real"})
	wantViolation(t, "Evict", "nil victim", func() { _, _ = p.Evict() })
}

func TestCheckedCatchesEvictFalseWhileTracking(t *testing.T) {
	p := Checked("fake", &refusesEvict{})
	p.Insert(&Doc{Key: "real"})
	wantViolation(t, "Evict", "reported empty", func() { _, _ = p.Evict() })
}

func TestCheckedCatchesHitOnUntracked(t *testing.T) {
	p := Checked("fake", &fakePolicy{})
	wantViolation(t, "Hit", "untracked", func() { p.Hit(&Doc{Key: "ghost"}) })
}

func TestCheckedCatchesLeakyRemove(t *testing.T) {
	p := Checked("fake", &leakyRemove{})
	d := &Doc{Key: "sticky"}
	p.Insert(d)
	wantViolation(t, "Remove", "tracked", func() { p.Remove(d) })
}
