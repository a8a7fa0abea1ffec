package policy

import (
	"fmt"
	"testing"

	"webcachesim/internal/doctype"
)

func newTA(t *testing.T, inner string) *TypeAware {
	t.Helper()
	spec, err := ParseSpec(inner)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactory(spec)
	if err != nil {
		t.Fatal(err)
	}
	return NewTypeAware(f)
}

func classDoc(key string, cl doctype.Class, size int64) *Doc {
	testDocID++
	return &Doc{Key: key, ID: testDocID, Class: cl, Size: size}
}

func TestTypeAwareContract(t *testing.T) {
	p := newTA(t, "lru")
	if p.Len() != 0 {
		t.Fatal("fresh policy not empty")
	}
	if _, ok := p.Evict(); ok {
		t.Fatal("evict from empty succeeded")
	}
	docs := []*Doc{
		classDoc("i1", doctype.Image, 100),
		classDoc("h1", doctype.HTML, 200),
		classDoc("m1", doctype.MultiMedia, 5000),
		classDoc("a1", doctype.Application, 1000),
		classDoc("o1", doctype.Other, 50),
		classDoc("u1", doctype.Unknown, 10), // must land in Other, not vanish
	}
	for _, d := range docs {
		p.Insert(d)
	}
	if p.Len() != 6 {
		t.Fatalf("Len = %d, want 6", p.Len())
	}
	p.Hit(docs[0])
	p.Remove(docs[1])
	p.Remove(docs[1]) // double remove is a no-op
	if p.Len() != 5 {
		t.Fatalf("Len after remove = %d, want 5", p.Len())
	}
	seen := map[string]bool{}
	for {
		v, ok := p.Evict()
		if !ok {
			break
		}
		if seen[v.Key] || v.Key == "h1" {
			t.Fatalf("bad eviction %q", v.Key)
		}
		seen[v.Key] = true
	}
	if len(seen) != 5 || p.Len() != 0 {
		t.Fatalf("drained %d, Len %d", len(seen), p.Len())
	}
}

func TestTypeAwareEvictsOverBudgetClass(t *testing.T) {
	p := newTA(t, "lru")
	// Traffic is almost entirely images, but multi media holds most of
	// the resident bytes: the first victim must be multi media.
	for i := 0; i < 50; i++ {
		d := classDoc(fmt.Sprintf("img%d", i), doctype.Image, 100)
		p.Insert(d)
		p.Hit(d)
	}
	p.Insert(classDoc("movie", doctype.MultiMedia, 1_000_000))
	v, ok := p.Evict()
	if !ok {
		t.Fatal("evict failed")
	}
	if v.Class != doctype.MultiMedia {
		t.Errorf("evicted %v (%s), want the over-budget multi-media doc", v.Class, v.Key)
	}
	if p.UsedBytes(doctype.MultiMedia) != 0 {
		t.Errorf("mm used bytes = %d after eviction", p.UsedBytes(doctype.MultiMedia))
	}
}

func TestTypeAwareBudgetTracksTraffic(t *testing.T) {
	p := newTA(t, "lru")
	// Phase 1: all image traffic.
	for i := 0; i < 1000; i++ {
		d := classDoc(fmt.Sprintf("i%d", i), doctype.Image, 1000)
		p.Insert(d)
	}
	if share := p.BudgetShare(doctype.Image); share < 0.95 {
		t.Fatalf("image budget share %v after image-only phase", share)
	}
	// Phase 2: traffic shifts to multi media; the budget must follow.
	for i := 0; i < 20_000; i++ {
		d := classDoc(fmt.Sprintf("m%d", i%100), doctype.MultiMedia, 50_000)
		p.Insert(d)
		p.Remove(d) // keep occupancy flat; only traffic matters here
	}
	if share := p.BudgetShare(doctype.MultiMedia); share < 0.9 {
		t.Errorf("multi-media budget share %v after shift, want ≥0.9", share)
	}
}

func TestTypeAwareSpecParsing(t *testing.T) {
	spec, err := ParseSpec("typeaware+gdstar:packet")
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactory(spec)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "TA[GD*(P)]" {
		t.Errorf("Name = %q", f.Name)
	}
	if _, err := ParseSpec("typeaware+typeaware+lru"); err == nil {
		t.Error("nested typeaware accepted")
	}
	if _, err := NewFactory(Spec{Scheme: "typeaware"}); err == nil {
		t.Error("typeaware without inner accepted")
	}
	if _, err := ParseSpec("typeaware+bogus"); err == nil {
		t.Error("bad inner scheme accepted")
	}
}

func TestTypeAwarePermutation(t *testing.T) {
	// Reuse the generic permutation harness with a type-aware instance
	// over every base scheme.
	for _, inner := range []string{"lru", "gds:p", "gdstar:1"} {
		p := newTA(t, inner)
		live := map[string]*Doc{}
		classes := []doctype.Class{doctype.Image, doctype.HTML, doctype.MultiMedia,
			doctype.Application, doctype.Other}
		for i := 0; i < 2000; i++ {
			switch {
			case i%3 != 2:
				key := fmt.Sprintf("%s-%d", inner, i)
				d := classDoc(key, classes[i%len(classes)], int64(100+i%5000))
				p.Insert(d)
				live[key] = d
			default:
				v, ok := p.Evict()
				if !ok {
					continue
				}
				if _, exists := live[v.Key]; !exists {
					t.Fatalf("%s: evicted unknown %q", inner, v.Key)
				}
				delete(live, v.Key)
			}
			if p.Len() != len(live) {
				t.Fatalf("%s: Len %d, model %d", inner, p.Len(), len(live))
			}
		}
	}
}
