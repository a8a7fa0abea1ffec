package policy

import (
	"fmt"
	"testing"
)

func TestSLRUSegmentation(t *testing.T) {
	p := NewSLRU(10)
	a, b, c := doc("a", 1), doc("b", 1), doc("c", 1)
	p.Insert(a)
	p.Insert(b)
	p.Insert(c)
	// Promote a: a one-time scan of b/c cannot evict it.
	p.Hit(a)
	if p.ProtectedLen() != 1 {
		t.Fatalf("protected = %d, want 1", p.ProtectedLen())
	}
	for _, want := range []string{"b", "c", "a"} {
		v, ok := p.Evict()
		if !ok || v.Key != want {
			t.Fatalf("evicted %v, want %s", v, want)
		}
	}
}

func TestSLRUProtectedOverflowDemotes(t *testing.T) {
	p := NewSLRU(2)
	docs := make([]*Doc, 4)
	for i := range docs {
		docs[i] = doc(fmt.Sprintf("d%d", i), 1)
		p.Insert(docs[i])
		p.Hit(docs[i]) // promote each; protected capacity 2
	}
	if p.ProtectedLen() != 2 {
		t.Fatalf("protected = %d, want 2", p.ProtectedLen())
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (demotion must not lose docs)", p.Len())
	}
	// d0 and d1 were demoted back to probation; they evict before d2/d3.
	v, _ := p.Evict()
	if v.Key != "d0" && v.Key != "d1" {
		t.Errorf("evicted %s, want a demoted doc", v.Key)
	}
}

func TestSLRUScanResistance(t *testing.T) {
	// A hot document survives a long one-touch scan under SLRU but not
	// under plain LRU with the same footprint.
	slru := NewSLRU(64)
	lru := NewLRU()
	hotS, hotL := doc("hot", 1), doc("hot", 1)
	slru.Insert(hotS)
	slru.Hit(hotS)
	lru.Insert(hotL)
	lru.Hit(hotL)
	evictedHotSLRU, evictedHotLRU := false, false
	for i := 0; i < 50; i++ {
		slru.Insert(doc(fmt.Sprintf("scan%d", i), 1))
		lru.Insert(doc(fmt.Sprintf("scan%d", i), 1))
		if v, ok := slru.Evict(); ok && v.Key == "hot" {
			evictedHotSLRU = true
		}
		if v, ok := lru.Evict(); ok && v.Key == "hot" {
			evictedHotLRU = true
		}
	}
	if evictedHotSLRU {
		t.Error("SLRU evicted the protected hot document during a scan")
	}
	if !evictedHotLRU {
		t.Error("LRU unexpectedly kept the hot document (test premise broken)")
	}
}

func TestSLRUFallbackEvictsProtected(t *testing.T) {
	p := NewSLRU(10)
	d := doc("only", 1)
	p.Insert(d)
	p.Hit(d) // now protected; probation empty
	v, ok := p.Evict()
	if !ok || v.Key != "only" {
		t.Fatalf("evict = %v, %v; want protected fallback", v, ok)
	}
}

func TestSLRUSpec(t *testing.T) {
	spec, err := ParseSpec("slru")
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactory(spec)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "SLRU" {
		t.Errorf("name: %q", f.Name)
	}
}
