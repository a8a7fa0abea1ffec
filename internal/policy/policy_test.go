package policy

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"webcachesim/internal/doctype"
)

// testDocID hands each test Doc a distinct dense ID, as the Doc.ID keying
// contract requires of callers.
var testDocID int32

func doc(key string, size int64) *Doc {
	testDocID++
	return &Doc{Key: key, ID: testDocID, Size: size, Class: doctype.Other}
}

// allPolicies returns a factory for every scheme, built from the spec
// strings ParseSpec accepts, for the contract tests. Its policies run under
// Checked, so every test here doubles as a run under the runtime contract
// checker: any Len drift, double insert, or bogus Evict result panics with
// a ContractError naming the scheme.
func allPolicies(t *testing.T) []Factory {
	var out []Factory
	for _, s := range []string{
		"lru", "fifo", "lfuda", "lfu", "size", "gds:1", "gds:p",
		"gdstar:1", "gdstar:p", "gdsf:1", "slru", "typeaware+lru",
	} {
		out = append(out, specFactory(t, s))
	}
	return out
}

// TestPolicyContract drives every policy through the generic lifecycle.
func TestPolicyContract(t *testing.T) {
	for _, f := range allPolicies(t) {
		t.Run(f.Name, func(t *testing.T) {
			p := f.New()
			if p.Len() != 0 {
				t.Fatal("fresh policy not empty")
			}
			if _, ok := p.Evict(); ok {
				t.Fatal("evict from empty policy succeeded")
			}
			docs := make([]*Doc, 5)
			for i := range docs {
				docs[i] = doc(fmt.Sprintf("d%d", i), int64(1000*(i+1)))
				p.Insert(docs[i])
			}
			if p.Len() != 5 {
				t.Fatalf("Len = %d, want 5", p.Len())
			}
			p.Hit(docs[0])
			p.Remove(docs[2])
			if p.Len() != 4 {
				t.Fatalf("Len after remove = %d, want 4", p.Len())
			}
			p.Remove(docs[2]) // double remove is a no-op
			if p.Len() != 4 {
				t.Fatal("double remove changed Len")
			}
			seen := map[string]bool{}
			for {
				v, ok := p.Evict()
				if !ok {
					break
				}
				if seen[v.Key] {
					t.Fatalf("document %s evicted twice", v.Key)
				}
				if v.Key == "d2" {
					t.Fatal("removed document was evicted")
				}
				seen[v.Key] = true
			}
			if len(seen) != 4 {
				t.Fatalf("evicted %d docs, want 4", len(seen))
			}
			if p.Len() != 0 {
				t.Fatal("Len after drain != 0")
			}
		})
	}
}

func TestLRUOrder(t *testing.T) {
	p := NewLRU()
	a, b, c := doc("a", 1), doc("b", 1), doc("c", 1)
	p.Insert(a)
	p.Insert(b)
	p.Insert(c)
	p.Hit(a) // order (MRU→LRU): a c b
	for _, want := range []string{"b", "c", "a"} {
		v, ok := p.Evict()
		if !ok || v.Key != want {
			t.Fatalf("evicted %v, want %s", v, want)
		}
	}
}

func TestFIFOIgnoresHits(t *testing.T) {
	p := NewFIFO()
	a, b := doc("a", 1), doc("b", 1)
	p.Insert(a)
	p.Insert(b)
	p.Hit(a)
	p.Hit(a)
	v, _ := p.Evict()
	if v.Key != "a" {
		t.Errorf("FIFO evicted %s, want a despite hits", v.Key)
	}
}

func TestLFUDAFrequencyAndAging(t *testing.T) {
	p := NewLFUDA()
	hot, cold := doc("hot", 1), doc("cold", 1)
	p.Insert(hot)
	p.Insert(cold)
	for i := 0; i < 10; i++ {
		p.Hit(hot)
	}
	v, _ := p.Evict()
	if v.Key != "cold" {
		t.Fatalf("evicted %s, want cold", v.Key)
	}
	// Cache age becomes the victim's key (1): a newly inserted document
	// gets key 1+1=2 and is preferred over the stale hot document only
	// after hot's advantage ages away.
	if got := p.Age(); got != 1 {
		t.Fatalf("Age = %v, want 1", got)
	}
	fresh := doc("fresh", 1)
	p.Insert(fresh) // key 2
	v, _ = p.Evict()
	if v.Key != "fresh" {
		t.Fatalf("evicted %s, want fresh (hot has key 11)", v.Key)
	}
}

func TestLFUDAAvoidsPermanentPollution(t *testing.T) {
	// A once-hot document must eventually age out against a stream of new
	// documents; plain LFU would keep it forever.
	da, plain := NewLFUDA(), NewLFU()
	for _, p := range []Policy{da, plain} {
		hot := doc("hot", 1)
		p.Insert(hot)
		for i := 0; i < 50; i++ {
			p.Hit(hot)
		}
	}
	evictedHotDA, evictedHotLFU := false, false
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("new%d", i)
		da.Insert(doc(key, 1))
		plain.Insert(doc(key, 1))
		if v, ok := da.Evict(); ok && v.Key == "hot" {
			evictedHotDA = true
		}
		if v, ok := plain.Evict(); ok && v.Key == "hot" {
			evictedHotLFU = true
		}
	}
	if !evictedHotDA {
		t.Error("LFU-DA never evicted the stale hot document (pollution)")
	}
	if evictedHotLFU {
		t.Error("plain LFU evicted the hot document; aging leaked into LFU")
	}
}

func TestGDSPrefersSmallCheapDocs(t *testing.T) {
	p := NewGDS(ConstantCost{})
	small, large := doc("small", 100), doc("large", 100_000)
	p.Insert(small)
	p.Insert(large)
	v, _ := p.Evict()
	if v.Key != "large" {
		t.Errorf("GDS(1) evicted %s, want large (H = 1/s)", v.Key)
	}
}

func TestGDSInflationMakesOldDocsEvictable(t *testing.T) {
	p := NewGDS(ConstantCost{})
	tiny := doc("tiny", 10) // H = 0.1, the highest value initially
	p.Insert(tiny)
	// Insert and evict a series of larger documents; each eviction
	// inflates L, so fresh large documents eventually outrank stale tiny.
	for i := 0; i < 200; i++ {
		p.Insert(doc(fmt.Sprintf("d%d", i), 1000))
		if v, ok := p.Evict(); ok && v.Key == "tiny" {
			if p.Age() <= 0 {
				t.Fatal("age did not inflate")
			}
			return // tiny aged out as expected
		}
	}
	t.Error("stale tiny document was never evicted despite inflation")
}

func TestGDSPacketCostKeepsLargeDocsLonger(t *testing.T) {
	// Under packet cost, c grows with size, so large documents are less
	// discriminated than under constant cost. Compare eviction of a large
	// vs. a small doc relative to a mid-size reference.
	constant := NewGDS(ConstantCost{})
	packet := NewGDS(PacketCost{})
	for _, p := range []Policy{constant, packet} {
		p.Insert(doc("large", 1_000_000))
		p.Insert(doc("small", 500))
	}
	v, _ := constant.Evict()
	if v.Key != "large" {
		t.Errorf("GDS(1) evicted %s, want large", v.Key)
	}
	// Packet cost: H(large) = (2+ceil(1e6/536))/1e6 ≈ 1.87e-3,
	// H(small) = (2+1)/500 = 6e-3 → large still lower, but the ratio is
	// ~3.2× rather than 2000×. Verify the ordering directly on values.
	v, _ = packet.Evict()
	if v.Key != "large" {
		t.Errorf("GDS(P) evicted %s, want large", v.Key)
	}
	ratioConst := (1.0 / 500) / (1.0 / 1_000_000)
	pc := PacketCost{}
	ratioPacket := (pc.Cost(500) / 500) / (pc.Cost(1_000_000) / 1_000_000)
	if ratioPacket >= ratioConst {
		t.Errorf("packet cost does not soften size discrimination: %v >= %v",
			ratioPacket, ratioConst)
	}
}

func TestGDStarFrequencyBeatsGDS(t *testing.T) {
	// Two same-size docs; one is referenced often. GDS resets H on hit
	// (no frequency), GD* scales with f: after hits, GD* must rank the
	// popular doc strictly above a fresh equal-size doc.
	p := NewGDStar(ConstantCost{}, 1) // β=1 isolates the frequency term
	pop, fresh := doc("pop", 1000), doc("fresh", 1000)
	p.Insert(pop)
	for i := 0; i < 9; i++ {
		p.Hit(pop)
	}
	p.Insert(fresh)
	v, _ := p.Evict()
	if v.Key != "fresh" {
		t.Errorf("GD* evicted %s, want fresh (f(pop)=10)", v.Key)
	}
}

func TestGDStarBetaExponent(t *testing.T) {
	// With β = 0.5, base values < 1 shrink quadratically: a rarely
	// referenced large doc drops much deeper than under β = 1. Check
	// value ordering via eviction of large-vs-small under both betas.
	for _, tt := range []struct {
		beta float64
		want float64
	}{
		{1, 1e-3}, {0.5, 1e-6},
	} {
		p := NewGDStar(ConstantCost{}, tt.beta)
		d := doc("d", 1000)
		p.Insert(d)
		if got := d.hm.item.Priority(); math.Abs(got-tt.want) > tt.want*1e-9 {
			t.Errorf("beta=%v: priority %v, want %v", tt.beta, got, tt.want)
		}
	}
}

func TestGDStarOnlineBetaWiring(t *testing.T) {
	p := NewGDStar(ConstantCost{}, 0)
	if p.Beta() != 1 {
		t.Errorf("initial online beta = %v, want neutral 1", p.Beta())
	}
	if p.estimator == nil {
		t.Fatal("online estimator not created for beta=0")
	}
	// Observations flow through Insert and Hit.
	d := doc("a", 10)
	p.Insert(d)
	p.Hit(d)
	if p.estimator.Observed() != 2 {
		t.Errorf("estimator observed %d, want 2", p.estimator.Observed())
	}
}

func TestSizeEvictsLargestFirst(t *testing.T) {
	p := NewSize()
	p.Insert(doc("mid", 500))
	p.Insert(doc("big", 5000))
	p.Insert(doc("tiny", 5))
	for _, want := range []string{"big", "mid", "tiny"} {
		v, _ := p.Evict()
		if v.Key != want {
			t.Fatalf("evicted %s, want %s", v.Key, want)
		}
	}
}

func TestCostModels(t *testing.T) {
	c := ConstantCost{}
	if c.Cost(0) != 1 || c.Cost(1<<30) != 1 {
		t.Error("constant cost must always be 1")
	}
	pkt := PacketCost{}
	tests := []struct {
		size int64
		want float64
	}{
		{0, 2}, {1, 3}, {536, 3}, {537, 4}, {5360, 12}, {-5, 2},
	}
	for _, tt := range tests {
		if got := pkt.Cost(tt.size); got != tt.want {
			t.Errorf("PacketCost(%d) = %v, want %v", tt.size, got, tt.want)
		}
	}
	if c.Tag() != "1" || pkt.Tag() != "P" {
		t.Error("cost tags wrong")
	}
}

func TestParseSpec(t *testing.T) {
	tests := []struct {
		in       string
		wantName string
		wantErr  bool
	}{
		{"lru", "LRU", false},
		{"lfuda", "LFU-DA", false},
		{"lfu-da", "LFU-DA", false},
		{"gds:const", "GDS(1)", false},
		{"gds:packet", "GDS(P)", false},
		{"gdstar:1", "GD*(1)", false},
		{"gd*:p", "GD*(P)", false},
		{"gdstar:packet:beta=0.8", "", true},
		{"fifo", "FIFO", false},
		{"size", "SIZE", false},
		{"lfu", "LFU", false},
		{"mystery", "", true},
		{"gds:warp", "", true},
		{"gdstar:beta=x", "", true},
		{"gdsf:p", "GDSF(P)", false},
		{"slru", "SLRU", false},
		// A cost model on a cost-oblivious scheme would be ignored.
		{"lru:p", "", true},
		{"lfuda:1", "", true},
		{"lfu:const", "", true},
		{"fifo:packet", "", true},
		{"size:p", "", true},
		{"slru:p", "", true},
		{"typeaware+lru:p", "", true},
		// The cost model is the one option, given once.
		{"gdstar:1:beta=1/2", "", true},
		{"gdstar:p:1", "", true},
		{"gds:packet:p", "", true},
	}
	for _, tt := range tests {
		spec, err := ParseSpec(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseSpec(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		f, err := NewFactory(spec)
		if err != nil {
			t.Errorf("NewFactory(%q): %v", tt.in, err)
			continue
		}
		if f.Name != tt.wantName {
			t.Errorf("ParseSpec(%q).Name = %q, want %q", tt.in, f.Name, tt.wantName)
		}
		if f.New() == nil {
			t.Errorf("factory %q produced no policy", tt.in)
		}
	}
}

// TestParseSpecBeta: beta= is no option of any scheme. On a cost-aware
// scheme it is refused with the cost models that are; an option on a
// cost-oblivious scheme would be ignored, so it is refused in an error
// naming scheme and option; an unknown scheme is refused with the list of
// schemes.
func TestParseSpecBeta(t *testing.T) {
	for _, in := range []string{"gdstar:beta=0.75", "gdstar:packet:beta=0.75", "gds:beta=2", "gdsf:beta=2"} {
		_, err := ParseSpec(in)
		if err == nil || !strings.Contains(err.Error(), "const, constant, 1, packet or p") {
			t.Errorf("ParseSpec(%q) err = %v, want an error listing the cost models", in, err)
		}
	}
	for _, tt := range []struct{ in, scheme, option string }{
		{"lfuda:beta=0.5", "lfuda", "beta=0.5"},
		{"slru:p:beta=3", "slru", "p"},
		{"lru:beta=1", "lru", "beta=1"},
		{"lru:p", "lru", "p"},
		{"fifo:packet", "fifo", "packet"},
	} {
		_, err := ParseSpec(tt.in)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(tt.scheme)) || !strings.Contains(err.Error(), strconv.Quote(tt.option)) {
			t.Errorf("ParseSpec(%q) err = %v, want an error naming scheme %q and option %q", tt.in, err, tt.scheme, tt.option)
		}
	}
	for _, in := range []string{"mystery", "beta=0.8", "typeaware+arc"} {
		_, err := ParseSpec(in)
		if err == nil || !strings.Contains(err.Error(), "lru, lfuda, lfu-da, gds, gdstar, gd*, gdsf, fifo, size, lfu, slru, or typeaware+<scheme>") {
			t.Errorf("ParseSpec(%q) err = %v, want an error listing the schemes", in, err)
		}
	}
}

func TestStudyFactories(t *testing.T) {
	fs := StudyFactories()
	want := []string{"LRU", "LFU-DA", "GDS(1)", "GD*(1)", "GDS(P)", "GD*(P)"}
	if len(fs) != len(want) {
		t.Fatalf("got %d factories, want %d", len(fs), len(want))
	}
	for i, f := range fs {
		if f.Name != want[i] {
			t.Errorf("factory %d = %q, want %q", i, f.Name, want[i])
		}
		// Each call must create an independent instance.
		a, b := f.New(), f.New()
		a.Insert(doc("x", 1))
		if b.Len() != 0 {
			t.Errorf("factory %q shares state between instances", f.Name)
		}
	}
}

// TestEvictionIsPermutation checks, for every policy, that inserting N
// docs and evicting N docs yields exactly the inserted set (no loss, no
// duplication) under interleaved hits and removes.
func TestEvictionIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, f := range allPolicies(t) {
		t.Run(f.Name, func(t *testing.T) {
			p := f.New()
			live := map[string]*Doc{}
			inserted := 0
			for op := 0; op < 3000; op++ {
				switch r := rng.Intn(10); {
				case r < 5:
					key := fmt.Sprintf("k%d", inserted)
					inserted++
					d := doc(key, int64(1+rng.Intn(100_000)))
					p.Insert(d)
					live[key] = d
				case r < 7 && len(live) > 0:
					for _, d := range live {
						p.Hit(d)
						break
					}
				case r < 8 && len(live) > 0:
					for k, d := range live {
						p.Remove(d)
						delete(live, k)
						break
					}
				default:
					v, ok := p.Evict()
					if !ok {
						if len(live) != 0 {
							t.Fatalf("evict failed with %d live docs", len(live))
						}
						continue
					}
					if _, exists := live[v.Key]; !exists {
						t.Fatalf("evicted unknown doc %s", v.Key)
					}
					delete(live, v.Key)
				}
				if p.Len() != len(live) {
					t.Fatalf("op %d: Len %d, model %d", op, p.Len(), len(live))
				}
			}
		})
	}
}
