package policy

import (
	"fmt"
	"testing"
)

func TestGDSFContract(t *testing.T) {
	p := NewGDSF(PacketCost{})
	if _, ok := p.Evict(); ok {
		t.Error("evict from empty succeeded")
	}
	a, b := doc("a", 100), doc("b", 100)
	p.Insert(a)
	p.Insert(b)
	p.Hit(a)
	v, ok := p.Evict()
	if !ok || v.Key != "b" {
		t.Errorf("evicted %v, want b (a has f=2)", v)
	}
	p.Remove(a)
	if p.Len() != 0 {
		t.Errorf("Len = %d, want 0", p.Len())
	}
}

// TestGDSFMatchesGDStarBetaOne pins GDSF to the β = 1 point of GD*: same
// stream, same eviction sequence.
func TestGDSFMatchesGDStarBetaOne(t *testing.T) {
	gdsf := NewGDSF(ConstantCost{})
	gdstar := NewGDStar(ConstantCost{}, 1)
	live := map[string]struct{}{}
	n := 0
	for op := 0; op < 3000; op++ {
		switch op % 3 {
		case 0, 1:
			key := fmt.Sprintf("d%d", n)
			size := int64(100 + n%9999)
			n++
			gdsf.Insert(doc(key, size))
			gdstar.Insert(doc(key, size))
			live[key] = struct{}{}
		default:
			va, oka := gdsf.Evict()
			vb, okb := gdstar.Evict()
			if oka != okb || (oka && va.Key != vb.Key) {
				t.Fatalf("op %d: GDSF and GD*(β=1) diverged: %v vs %v", op, va, vb)
			}
			if oka {
				delete(live, va.Key)
			}
		}
	}
}

func TestGDSFSpec(t *testing.T) {
	spec, err := ParseSpec("gdsf:packet")
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactory(spec)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "GDSF(P)" {
		t.Errorf("factory %q", f.Name)
	}
}
