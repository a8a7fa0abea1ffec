package cache

import (
	"fmt"
	"testing"

	"webcachesim/internal/admission"
	"webcachesim/internal/policy"
)

// rejectContested admits only into free space: any insert that would
// displace a victim is refused.
type rejectContested struct {
	counts policy.AdmissionCounts
}

func (r *rejectContested) Touch(*policy.Doc) { r.counts.Touches++ }
func (r *rejectContested) Admit(candidate, victim *policy.Doc) bool {
	if victim == nil {
		return true
	}
	r.counts.Rejected++
	return false
}
func (r *rejectContested) Inserted(*policy.Doc)           { r.counts.Admitted++ }
func (r *rejectContested) Evicted(*policy.Doc)            {}
func (r *rejectContested) Counts() policy.AdmissionCounts { return r.counts }

func rejectContestedFactory() policy.AdmitterFactory {
	return policy.AdmitterFactory{
		Name: "reject-contested",
		New:  func(int64) policy.Admitter { return &rejectContested{} },
	}
}

func TestInsertOutcomes(t *testing.T) {
	c := mustNew(t, Config{Capacity: 1000, Shards: 1, Admission: rejectContestedFactory()})
	if got := c.Insert("a", ent("a", 600)); got != SetStored {
		t.Fatalf("Insert(a) = %v, want SetStored", got)
	}
	// b needs an eviction; the filter refuses it.
	if got := c.Insert("b", ent("b", 600)); got != SetRejectedAdmission {
		t.Fatalf("Insert(b) = %v, want SetRejectedAdmission", got)
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("rejected insert must leave the resident entry in place")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("rejected entry must not be resident")
	}
	// An entry bigger than the whole cache is a budget rejection, not an
	// admission rejection.
	if got := c.Insert("huge", ent("huge", 2000)); got != SetRejectedBudget {
		t.Fatalf("Insert(huge) = %v, want SetRejectedBudget", got)
	}
	if got := c.AdmissionRejects(); got != 1 {
		t.Errorf("AdmissionRejects = %d, want 1", got)
	}
	counts := c.AdmissionCounts()
	if counts.Rejected != 1 || counts.Admitted != 1 {
		t.Errorf("AdmissionCounts = %+v, want Rejected=1 Admitted=1", counts)
	}
}

func TestSetWrapsInsert(t *testing.T) {
	c := mustNew(t, Config{Capacity: 1000, Shards: 1, Admission: rejectContestedFactory()})
	if c.Insert("a", ent("a", 600)) != SetStored {
		t.Fatal("Insert(a) should store into free space")
	}
	if c.Insert("b", ent("b", 600)) == SetStored {
		t.Fatal("Insert(b) should report the admission rejection")
	}
}

func TestAdmissionTinyLFUAcrossShards(t *testing.T) {
	c := mustNew(t, Config{
		Capacity:  4000,
		Shards:    4,
		Admission: admission.MustSpec("tinylfu"),
	})
	// A popular key per shard-ish neighborhood plus one-hit wonders.
	for i := 0; i < 50; i++ {
		for j := 0; j < 4; j++ {
			key := fmt.Sprintf("hot-%d", j)
			if _, ok := c.Get(key); !ok {
				c.Insert(key, ent(key, 400))
			}
		}
		once := fmt.Sprintf("once-%d", i)
		c.Insert(once, ent(once, 900))
	}
	for j := 0; j < 4; j++ {
		if _, ok := c.Get(fmt.Sprintf("hot-%d", j)); !ok {
			t.Errorf("hot-%d washed out despite the frequency filter", j)
		}
	}
	counts := c.AdmissionCounts()
	if counts.Rejected == 0 {
		t.Error("TinyLFU should have rejected some one-hit wonders")
	}
	if counts.Touches == 0 || counts.Admitted == 0 {
		t.Errorf("per-shard counters should aggregate: %+v", counts)
	}
	if c.AdmissionRejects() == 0 {
		t.Error("AdmissionRejects counter should mirror rejected Inserts")
	}
}

func TestNoAdmissionCountsZero(t *testing.T) {
	c := mustNew(t, Config{Capacity: 1000, Shards: 2})
	c.Insert("a", ent("a", 600))
	c.Insert("b", ent("b", 600))
	if got := c.AdmissionRejects(); got != 0 {
		t.Errorf("AdmissionRejects = %d without a filter, want 0", got)
	}
	if counts := c.AdmissionCounts(); counts != (policy.AdmissionCounts{}) {
		t.Errorf("AdmissionCounts = %+v without a filter, want zero", counts)
	}
}
