package admission

import (
	"testing"

	"webcachesim/internal/policy"
)

func TestARCGhostProbationBudget(t *testing.T) {
	a := NewARCGhost(1000) // initial target 0.5 → 500 probation bytes
	victim := doc(99, 100)

	first := doc(1, 300)
	if !a.Admit(first, victim) {
		t.Fatal("first unknown candidate fits under the probation target")
	}
	a.Inserted(first)
	if a.ProbationBytes() != 300 {
		t.Fatalf("ProbationBytes=%d, want 300", a.ProbationBytes())
	}

	// The next stranger would push probation to 600 > 500: rejected, but
	// remembered in the recent ghost so its repeat miss re-enters.
	second := doc(2, 300)
	if a.Admit(second, victim) {
		t.Fatal("candidate past the probation target must be rejected")
	}
	if got := a.Counts().Rejected; got != 1 {
		t.Errorf("Rejected=%d, want 1", got)
	}
	if !a.Admit(second, victim) {
		t.Fatal("second miss of a rejected candidate is a ghost hit; must admit")
	}
	a.Inserted(second)
	c := a.Counts()
	if c.GhostHits != 1 {
		t.Errorf("GhostHits=%d, want 1", c.GhostHits)
	}
	if a.Target() <= arcInitialTarget {
		t.Errorf("Target=%v, want raised above %v after a recent-ghost hit", a.Target(), arcInitialTarget)
	}
}

func TestARCGhostTouchGraduates(t *testing.T) {
	a := NewARCGhost(1000)
	d := doc(1, 300)
	if !a.Admit(d, doc(99, 100)) {
		t.Fatal("unknown candidate under target must be admitted")
	}
	a.Inserted(d)
	a.Touch(d) // re-reference: proven, stops counting against probation
	if a.ProbationBytes() != 0 {
		t.Errorf("ProbationBytes=%d after graduation, want 0", a.ProbationBytes())
	}
}

func TestARCGhostEvictionRouting(t *testing.T) {
	a := NewARCGhost(1000)
	victim := doc(99, 100)

	unproven := doc(1, 200)
	a.Admit(unproven, victim)
	a.Inserted(unproven)
	a.Evicted(unproven) // still on probation → recent ghost
	if !a.recent.Contains(unproven.Key) || a.proven.Contains(unproven.Key) {
		t.Error("unproven eviction must be remembered by the recent ghost only")
	}
	if a.ProbationBytes() != 0 {
		t.Errorf("ProbationBytes=%d after probation eviction, want 0", a.ProbationBytes())
	}

	graduated := doc(2, 200)
	a.Admit(graduated, victim)
	a.Inserted(graduated)
	a.Touch(graduated)
	a.Evicted(graduated) // graduated → proven ghost
	if !a.proven.Contains(graduated.Key) || a.recent.Contains(graduated.Key) {
		t.Error("proven eviction must be remembered by the proven ghost only")
	}
}

func TestARCGhostProvenHitShrinksTarget(t *testing.T) {
	a := NewARCGhost(1000)
	victim := doc(99, 100)
	d := doc(1, 200)
	a.Admit(d, victim)
	a.Inserted(d)
	a.Touch(d)
	a.Evicted(d)

	// Raise the target first so the shrink is observable from 0.5.
	a.adapt(arcStep)
	before := a.Target()
	if !a.Admit(d, victim) {
		t.Fatal("proven-ghost candidate must be admitted")
	}
	a.Inserted(d)
	if a.Target() >= before {
		t.Errorf("Target=%v, want shrunk below %v after a proven-ghost hit", a.Target(), before)
	}
}

func TestARCGhostTargetClamped(t *testing.T) {
	a := NewARCGhost(1000)
	for i := 0; i < 100; i++ {
		a.adapt(arcStep)
	}
	if a.Target() != arcMaxTarget {
		t.Errorf("Target=%v, want clamped at %v", a.Target(), arcMaxTarget)
	}
	for i := 0; i < 100; i++ {
		a.adapt(-arcStep)
	}
	if a.Target() != arcMinTarget {
		t.Errorf("Target=%v, want clamped at %v", a.Target(), arcMinTarget)
	}
}

// TestAdmitterSizeShrinkGuard exercises the interaction with the
// simulator's aborted-transfer recharge: a probation member admitted at
// one size must be credited back exactly that size even if the document
// shrank while resident (the admitted size is what probBytes charged).
func TestAdmitterSizeShrinkGuard(t *testing.T) {
	a := NewARCGhost(1000)
	d := doc(1, 400)
	a.Admit(d, doc(99, 100))
	a.Inserted(d)

	d.Size = 250 // resident size corrected downward (aborted transfer completed short)
	a.Touch(d)   // graduation must credit the admitted 400, not 250
	if a.ProbationBytes() != 0 {
		t.Errorf("ProbationBytes=%d after shrink+graduation, want 0", a.ProbationBytes())
	}

	var _ policy.Admitter = a
}
