package policy

import "testing"

// victimRecorder admits only against one document and records every
// victim it is asked about.
type victimRecorder struct {
	admitAgainst *Doc
	asked        []*Doc
}

func (r *victimRecorder) Touch(*Doc) {}
func (r *victimRecorder) Admit(candidate, victim *Doc) bool {
	r.asked = append(r.asked, victim)
	return victim == r.admitAgainst
}
func (r *victimRecorder) Inserted(*Doc)           {}
func (r *victimRecorder) Evicted(*Doc)            {}
func (r *victimRecorder) Counts() AdmissionCounts { return AdmissionCounts{} }

// TestAdmits pins the admission rule: one question, against the policy's
// next victim, and none when there is no admitter or nothing to evict.
func TestAdmits(t *testing.T) {
	p := NewLRU()
	candidate := doc("candidate", 100)
	if !Admits(nil, p, candidate) {
		t.Error("no admitter must admit")
	}
	r := &victimRecorder{}
	if !Admits(r, p, candidate) || len(r.asked) != 0 {
		t.Errorf("a policy with nothing to evict must admit without asking; asked about %d victims", len(r.asked))
	}

	a, b := doc("a", 100), doc("b", 100)
	p.Insert(a)
	p.Insert(b)
	for _, tc := range []struct {
		against *Doc
		want    bool
	}{{a, true}, {b, false}} {
		r := &victimRecorder{admitAgainst: tc.against}
		if got := Admits(r, p, candidate); got != tc.want {
			t.Errorf("admitter admitting against %s: Admits = %v, want %v", tc.against.Key, got, tc.want)
		}
		if len(r.asked) != 1 || r.asked[0] != a {
			t.Errorf("admitter asked about %d victims, want one: a, LRU's next", len(r.asked))
		}
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d after Admits, want 2: judging evicts nothing", p.Len())
	}
}
