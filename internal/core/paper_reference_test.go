package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
)

// paperCache is the study's cache written straight from §3 and §4.1, the
// second implementation the simulator is held to. A scheme values each
// resident document at H; the victim is the least H and, among equal H,
// the document touched (inserted or hit) least recently, found by scanning
// them all. An aging scheme adds the cache age L, the last victim's H.
type paperCache struct {
	value            paperValue
	capacity, warmup int64
	docs             map[int32]*paperDoc
	resident         []*paperDoc // docs' values, in no order, for the scan
	used, n          int64
	age              float64 // L
	seq              uint64
	res              Result
	victims          []paperVictim // the last request's
}

// paperValue is a scheme's H for a document of s bytes referenced f times
// since it entered the cache, at cache age L: LRU's is 0, so the touch
// order alone decides; LFU-DA's L + f; GDS's L + c/s; GD*'s, at a fixed β,
// L + (f·c/s)^(1/β). A retrieval costs c = 1, or c = 2 + ⌈s/536⌉ packets.
type paperValue func(L float64, f, s int64) float64

func oneCost(int64) float64                    { return 1 }
func packetCost(s int64) float64               { return 2 + math.Ceil(float64(s)/536) }
func lruValue(float64, int64, int64) float64   { return 0 }
func lfudaValue(L float64, f, _ int64) float64 { return L + float64(f) }

func gdsValue(c func(int64) float64) paperValue {
	return func(L float64, _, s int64) float64 { return L + c(s)/float64(max(s, 1)) }
}

func gdstarValue(c func(int64) float64, beta float64) paperValue {
	return func(L float64, f, s int64) float64 { return L + math.Pow(float64(f)*c(s)/float64(max(s, 1)), 1/beta) }
}

// paperDoc is a resident document; a paperVictim, an evicted one and its H.
type paperDoc struct {
	id      int32
	size, f int64 // f: references since it entered the cache
	h       float64
	seq     uint64 // its last touch
	at      int    // its index in resident
}

type paperVictim struct {
	id int32
	h  float64
}

// process serves one request: a hit, a modification (the stale copy is
// dropped, not replaced, and fetched again) or a miss. Warm-up is uncounted.
func (c *paperCache) process(ev Event) Outcome {
	c.victims = c.victims[:0]
	c.n++
	measured := c.n > c.warmup
	d := c.docs[ev.DocID]
	hit := d != nil && !ev.Modified
	if measured {
		cc := Counts{Requests: 1, ReqBytes: ev.TransferSize}
		if hit {
			cc.Hits, cc.HitBytes = 1, ev.TransferSize
		}
		c.res.ByClass[ev.Class].add(cc)
	}
	switch {
	case hit:
		// A transfer interrupted before has completed: the copy is charged
		// its full size, and making room for it may evict the copy itself.
		c.used += ev.DocSize - d.size
		d.size = ev.DocSize
		c.makeRoom(0)
		if c.docs[ev.DocID] == d {
			d.f++
			c.touch(d)
		}
		return OutcomeHit
	case d != nil:
		if measured {
			c.res.Modifications++
		}
		c.drop(d) // L stays
		c.insert(ev, measured)
		return OutcomeModified
	}
	c.insert(ev, measured)
	return OutcomeMiss
}

func (c *paperCache) insert(ev Event, measured bool) {
	if ev.DocSize > c.capacity {
		if measured {
			c.res.Uncachable++
		}
		return
	}
	c.makeRoom(ev.DocSize)
	d := &paperDoc{id: ev.DocID, size: ev.DocSize, f: 1, at: len(c.resident)}
	c.docs[d.id], c.resident = d, append(c.resident, d)
	c.used += d.size
	c.touch(d)
}

// touch values a document at the current L and its current size.
func (c *paperCache) touch(d *paperDoc) {
	c.seq++
	d.seq = c.seq
	d.h = c.value(c.age, d.f, d.size)
}

// makeRoom evicts the least (H, touch) until extra more bytes fit.
func (c *paperCache) makeRoom(extra int64) {
	for c.used+extra > c.capacity {
		v := c.resident[0]
		for _, d := range c.resident[1:] {
			if d.h < v.h || d.h == v.h && d.seq < v.seq {
				v = d
			}
		}
		c.age = v.h
		c.drop(v)
		c.res.Evictions++
		c.victims = append(c.victims, paperVictim{v.id, v.h})
	}
}

func (c *paperCache) drop(d *paperDoc) {
	last := c.resident[len(c.resident)-1]
	c.resident[d.at], last.at = last, d.at
	c.resident = c.resident[:len(c.resident)-1]
	delete(c.docs, d.id)
	c.used -= d.size
}

func (c *paperCache) result(name string) *Result {
	r := c.res
	r.Policy, r.Capacity, r.WarmupRequests = name, c.capacity, c.warmup
	for _, cl := range doctype.Classes {
		r.Overall.add(r.ByClass[cl])
	}
	return &r
}

// victimTap records each victim of a policy with the cache age its
// eviction leaves: a value-based scheme's victim H (LRU has no age, and
// reads 0, the reference's LRU value).
type victimTap struct {
	policy.Policy
	victims *[]paperVictim
}

func (t victimTap) Evict() (*policy.Doc, bool) {
	d, ok := t.Policy.Evict()
	if aged, isAged := t.Policy.(interface{ Age() float64 }); ok && isAged {
		*t.victims = append(*t.victims, paperVictim{d.ID, aged.Age()})
	} else if ok {
		*t.victims = append(*t.victims, paperVictim{id: d.ID})
	}
	return d, ok
}

// checkAgainstPaper replays w through the reference and through core, under
// policy.Checked, for LRU, LFU-DA, GDS(1), GDS(P), and GD*(1) and GD*(P) at
// three fixed β (online β is beta_test.go's), at each capacity, ascending.
// Every outcome and victim (with its H) from Simulator.Process, and every
// Result from Process and Sweep, must be the reference's. It returns how
// many hits evicted the document they hit.
func checkAgainstPaper(t *testing.T, w *Workload, capacities []int64) (selfEvicted int) {
	t.Helper()
	study := policy.StudyFactories() // LRU, LFU-DA, GDS(1), GD*(1), GDS(P), GD*(P)
	factories := []policy.Factory{study[0], study[1], study[2], study[4]}
	values := []paperValue{lruValue, lfudaValue, gdsValue(oneCost), gdsValue(packetCost)}
	for _, beta := range []float64{0.5, 1, 2} {
		for j, cost := range []policy.CostModel{policy.ConstantCost{}, policy.PacketCost{}} {
			name := fmt.Sprintf("GD*(%s) β=%g", cost.Tag(), beta)
			factories = append(factories, policy.Factory{Name: name, New: func() policy.Policy { return policy.NewGDStar(cost, beta) }})
			values = append(values, gdstarValue([]func(int64) float64{oneCost, packetCost}[j], beta))
		}
	}
	for k, f := range factories {
		swept, err := Sweep(w, SweepConfig{Policies: []policy.Factory{checkedFactory(f)}, Capacities: capacities})
		if err != nil {
			t.Fatal(err)
		}
		for i, capacity := range capacities {
			var victims []paperVictim
			tapped := policy.Factory{Name: f.Name, New: func() policy.Policy { return victimTap{f.New(), &victims} }}
			sim := newSim(t, w, Config{Capacity: capacity, Policy: checkedFactory(tapped)})
			ref := &paperCache{value: values[k], capacity: capacity, warmup: int64(w.NumRequests() / 10), docs: map[int32]*paperDoc{}}
			for j := 0; j < w.NumRequests(); j++ {
				ev := w.Event(j)
				victims = victims[:0]
				got, want := sim.Process(&ev), ref.process(ev)
				if got != want || !slices.Equal(victims, ref.victims) {
					t.Fatalf("%s @%d: request %d for %s %+v\n     core: outcome %v, victims (ID, H) %v\nreference: outcome %v, victims (ID, H) %v",
						f.Name, capacity, j, w.Key(ev.DocID), ev, got, victims, want, ref.victims)
				}
				if got.Hit() && ref.docs[ev.DocID] == nil {
					selfEvicted++
				}
			}
			if want := ref.result(f.Name); !reflect.DeepEqual(swept[i], want) || !reflect.DeepEqual(sim.Result(), want) {
				t.Errorf("%s @%d: results diverge from the reference\n  Sweep %+v\nProcess %+v\n   want %+v", f.Name, capacity, swept[i], sim.Result(), want)
			}
		}
	}
	return selfEvicted
}

// TestSimulatorMatchesPaper replays a synthetic DFN stream with its sizes
// inferred from the bytes sent, as in a Squid log (modifications, transfers
// interrupted and later completed, documents larger than two capacities,
// 10 % warm-up), and reuseWorkload's random streams, which break a stack-
// distance oracle's preconditions: shrinking documents, resident copies
// grown past the capacity, and equal sizes, so equal values H.
func TestSimulatorMatchesPaper(t *testing.T) {
	w := dfnWorkload(t)
	capacities := []int64{w.CapacityAt(0.5, 0), w.CapacityAt(2, 0), w.CapacityAt(4, 0)}
	if !slices.Contains(w.cols.Modified, true) || slices.Max(w.cols.DocSize) <= capacities[1] {
		t.Fatal("the DFN stream has no modification, or no document larger than the middle capacity")
	}
	selfEvicted := checkAgainstPaper(t, w, capacities)
	for seed := int64(1); seed <= 5; seed++ {
		selfEvicted += checkAgainstPaper(t, reuseWorkload(t, seed), []int64{100_000, 600_000, 2_000_000})
	}
	if selfEvicted == 0 {
		t.Error("no completed transfer evicted the copy it recharged")
	}
}
