package admission

import "testing"

func TestGhostRecordAndContains(t *testing.T) {
	g := NewGhost(1000)
	g.Record("/doc/1", 400)
	g.Record("/doc/2", 300)
	if !g.Contains("/doc/1") || !g.Contains("/doc/2") {
		t.Fatalf("ghost should remember both URLs: 1=%v 2=%v", g.Contains("/doc/1"), g.Contains("/doc/2"))
	}
	if g.Len() != 2 || g.Bytes() != 700 {
		t.Errorf("Len=%d Bytes=%d, want 2/700", g.Len(), g.Bytes())
	}
	if !g.Remove("/doc/1") {
		t.Error("Remove(/doc/1) reported it was not remembered")
	}
	if g.Contains("/doc/1") || g.Bytes() != 300 {
		t.Errorf("after Remove(/doc/1): Contains=%v Bytes=%d, want false/300", g.Contains("/doc/1"), g.Bytes())
	}
	// Removing an unknown URL is a no-op.
	if g.Remove("/doc/42") || g.Len() != 1 {
		t.Errorf("removing an unknown URL reported one or changed Len to %d, want 1", g.Len())
	}
}

// TestGhostBudgetOverflow is the capacity-overflow edge case: recording
// past the byte budget must drop the oldest entries, never grow without
// bound.
func TestGhostBudgetOverflow(t *testing.T) {
	g := NewGhost(1000)
	g.Record("/doc/1", 400)
	g.Record("/doc/2", 400)
	g.Record("/doc/3", 400) // 1200 > 1000: doc 1 (oldest) must go
	if g.Contains("/doc/1") {
		t.Error("oldest entry should have been dropped on overflow")
	}
	if !g.Contains("/doc/2") || !g.Contains("/doc/3") {
		t.Errorf("newer entries must survive: 2=%v 3=%v", g.Contains("/doc/2"), g.Contains("/doc/3"))
	}
	if g.Bytes() > 1000 {
		t.Errorf("Bytes=%d exceeds budget 1000", g.Bytes())
	}
}

func TestGhostRefreshMovesToFront(t *testing.T) {
	g := NewGhost(1000)
	g.Record("/doc/1", 400)
	g.Record("/doc/2", 400)
	g.Record("/doc/1", 400) // refresh: doc 1 becomes newest
	g.Record("/doc/3", 400) // overflow drops the oldest, now doc 2
	if g.Contains("/doc/2") {
		t.Error("doc 2 should have been dropped; doc 1 was refreshed ahead of it")
	}
	if !g.Contains("/doc/1") || !g.Contains("/doc/3") {
		t.Errorf("refreshed and newest entries must survive: 1=%v 3=%v", g.Contains("/doc/1"), g.Contains("/doc/3"))
	}
}

func TestGhostRefreshAdjustsBytes(t *testing.T) {
	g := NewGhost(1000)
	g.Record("/doc/1", 400)
	g.Record("/doc/1", 250) // the document shrank before its re-eviction
	if g.Bytes() != 250 || g.Len() != 1 {
		t.Errorf("Bytes=%d Len=%d after shrink refresh, want 250/1", g.Bytes(), g.Len())
	}
}

func TestGhostOversizedNotRecorded(t *testing.T) {
	g := NewGhost(1000)
	g.Record("/doc/1", 400)
	g.Record("/doc/1", 2000) // grew past the whole budget: must be forgotten entirely
	if g.Contains("/doc/1") || g.Bytes() != 0 {
		t.Errorf("oversized record must clear the entry: Contains=%v Bytes=%d", g.Contains("/doc/1"), g.Bytes())
	}
}

func TestGhostNegativeSizeClamped(t *testing.T) {
	g := NewGhost(100)
	g.Record("/doc/1", -5)
	if !g.Contains("/doc/1") || g.Bytes() != 0 {
		t.Errorf("negative size should clamp to 0: Contains=%v Bytes=%d", g.Contains("/doc/1"), g.Bytes())
	}
}

func TestGhostZeroBudgetRemembersNothing(t *testing.T) {
	g := NewGhost(0)
	g.Record("/doc/1", 10)
	if g.Contains("/doc/1") || g.Len() != 0 {
		t.Errorf("zero-budget ghost must stay empty: Contains=%v Len=%d", g.Contains("/doc/1"), g.Len())
	}
}
