package pqueue

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// push queues a fresh caller-owned item and returns it.
func push[T any](q *Queue[T], value T, priority float64) *Item[T] {
	it := &Item[T]{Value: value}
	q.Push(it, priority)
	return it
}

func TestEmptyQueue(t *testing.T) {
	var q Queue[string]
	if q.Len() != 0 {
		t.Errorf("Len = %d, want 0", q.Len())
	}
	if _, err := q.Min(); !errors.Is(err, ErrEmpty) {
		t.Errorf("Min on empty = %v, want ErrEmpty", err)
	}
	if _, err := q.PopMin(); !errors.Is(err, ErrEmpty) {
		t.Errorf("PopMin on empty = %v, want ErrEmpty", err)
	}
}

func TestPushPopOrder(t *testing.T) {
	var q Queue[int]
	prios := []float64{5, 1, 4, 2, 3, 0.5, 10}
	for i, p := range prios {
		push(&q, i, p)
	}
	want := append([]float64(nil), prios...)
	sort.Float64s(want)
	for _, w := range want {
		it, err := q.PopMin()
		if err != nil {
			t.Fatal(err)
		}
		if it.Priority() != w {
			t.Errorf("popped priority %v, want %v", it.Priority(), w)
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len after drain = %d", q.Len())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue[string]
	push(&q, "first", 1)
	push(&q, "second", 1)
	push(&q, "third", 1)
	for _, want := range []string{"first", "second", "third"} {
		it, err := q.PopMin()
		if err != nil {
			t.Fatal(err)
		}
		if it.Value != want {
			t.Errorf("popped %q, want %q", it.Value, want)
		}
	}
}

func TestUpdateReordersAndRefreshesTie(t *testing.T) {
	var q Queue[string]
	a := push(&q, "a", 1)
	push(&q, "b", 2)
	c := push(&q, "c", 3)

	q.Update(c, 0.5)
	it, _ := q.Min()
	if it.Value != "c" {
		t.Errorf("Min after update = %q, want c", it.Value)
	}

	// Updating "a" to the same priority as "c" must make "a" newer: "c"
	// still pops first.
	q.Update(a, 0.5)
	it, _ = q.PopMin()
	if it.Value != "c" {
		t.Errorf("popped %q, want c (update refreshes tie order)", it.Value)
	}
	it, _ = q.PopMin()
	if it.Value != "a" {
		t.Errorf("popped %q, want a", it.Value)
	}
}

func TestRemove(t *testing.T) {
	var q Queue[int]
	items := make([]*Item[int], 10)
	for i := range items {
		items[i] = push(&q, i, float64(i))
	}
	q.Remove(items[0]) // remove min
	q.Remove(items[5]) // remove middle
	q.Remove(items[9]) // remove last
	q.Remove(items[5]) // double-remove is a no-op
	if q.Len() != 7 {
		t.Fatalf("Len = %d, want 7", q.Len())
	}
	var got []float64
	for q.Len() > 0 {
		it, _ := q.PopMin()
		got = append(got, it.Priority())
	}
	want := []float64{1, 2, 3, 4, 6, 7, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

func TestUpdateForeignItemIgnored(t *testing.T) {
	var q1, q2 Queue[int]
	it := push(&q1, 1, 1)
	push(&q2, 2, 2)
	q2.Update(it, 0) // must not corrupt q2
	got, _ := q2.Min()
	if got.Value != 2 || got.Priority() != 2 {
		t.Errorf("foreign update corrupted queue: %v %v", got.Value, got.Priority())
	}
	q1.Remove(it)
	q1.Update(it, 42) // update of a removed item must be ignored
	if q1.Len() != 0 {
		t.Error("update of removed item re-inserted it")
	}
}

func TestItemsSnapshot(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 5; i++ {
		push(&q, i, float64(i))
	}
	items := q.Items()
	if len(items) != 5 {
		t.Fatalf("Items len = %d, want 5", len(items))
	}
	items[0] = nil // must not affect queue
	if _, err := q.Min(); err != nil {
		t.Error("mutating snapshot affected queue")
	}
}

// TestHeapInvariantRandomOps drives a random operation sequence and
// cross-checks against a reference model.
func TestHeapInvariantRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q Queue[int]
	type entry struct {
		item *Item[int]
		prio float64
		seq  int
	}
	var model []entry
	seq := 0
	minOf := func() (float64, int) {
		best := -1
		for i, e := range model {
			if best < 0 || e.prio < model[best].prio ||
				(e.prio == model[best].prio && e.seq < model[best].seq) {
				best = i
			}
		}
		_ = best
		return model[best].prio, best
	}
	for op := 0; op < 5000; op++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(model) == 0: // push
			p := float64(rng.Intn(100))
			seq++
			model = append(model, entry{item: push(&q, op, p), prio: p, seq: seq})
		case r < 7: // update
			i := rng.Intn(len(model))
			p := float64(rng.Intn(100))
			seq++
			q.Update(model[i].item, p)
			model[i].prio, model[i].seq = p, seq
		case r < 8: // remove
			i := rng.Intn(len(model))
			q.Remove(model[i].item)
			model[i] = model[len(model)-1]
			model = model[:len(model)-1]
		default: // pop min
			wantPrio, idx := minOf()
			it, err := q.PopMin()
			if err != nil {
				t.Fatalf("op %d: PopMin: %v", op, err)
			}
			if it.Priority() != wantPrio {
				t.Fatalf("op %d: popped %v, model min %v", op, it.Priority(), wantPrio)
			}
			model[idx] = model[len(model)-1]
			model = model[:len(model)-1]
		}
		if q.Len() != len(model) {
			t.Fatalf("op %d: Len %d, model %d", op, q.Len(), len(model))
		}
	}
}

// Property: pushing any set of priorities and draining yields sorted order.
func TestDrainSortedProperty(t *testing.T) {
	f := func(prios []float64) bool {
		var q Queue[int]
		valid := prios[:0]
		for _, p := range prios {
			if p == p { // skip NaN, which has no total order
				valid = append(valid, p)
			}
		}
		for i, p := range valid {
			push(&q, i, p)
		}
		prev := 0.0
		for i := 0; q.Len() > 0; i++ {
			it, err := q.PopMin()
			if err != nil {
				return false
			}
			if i > 0 && it.Priority() < prev {
				return false
			}
			prev = it.Priority()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// NaN priorities must not scramble the heap: they order below every real
// priority (popped first) and among themselves by insertion sequence.
func TestNaNPriorityOrdersFirstDeterministically(t *testing.T) {
	nan := math.NaN()
	var q Queue[string]
	push(&q, "real-low", 1)
	push(&q, "nan-a", nan)
	push(&q, "real-high", 100)
	push(&q, "nan-b", nan)
	want := []string{"nan-a", "nan-b", "real-low", "real-high"}
	for _, w := range want {
		it, err := q.PopMin()
		if err != nil {
			t.Fatalf("PopMin: %v", err)
		}
		if it.Value != w {
			t.Fatalf("popped %q, want %q", it.Value, w)
		}
	}
}

// Updating an item to NaN and back must keep the heap consistent.
func TestNaNUpdateKeepsHeapConsistent(t *testing.T) {
	var q Queue[int]
	items := make([]*Item[int], 6)
	for i := range items {
		items[i] = push(&q, i, float64(i))
	}
	q.Update(items[3], math.NaN())
	it, err := q.PopMin()
	if err != nil || it.Value != 3 {
		t.Fatalf("PopMin after NaN update = %v, %v; want item 3", it, err)
	}
	q.Update(items[5], 0.5)
	prev := math.Inf(-1)
	for q.Len() > 0 {
		it, err := q.PopMin()
		if err != nil {
			t.Fatalf("PopMin: %v", err)
		}
		if it.Priority() < prev {
			t.Fatalf("heap order violated: %v after %v", it.Priority(), prev)
		}
		prev = it.Priority()
	}
}

// refLess is the reference order the heap must reproduce: NaN priorities
// first, then ascending priority, ties by ascending sequence.
func refLess(ap float64, aseq int, bp float64, bseq int) bool {
	an, bn := math.IsNaN(ap), math.IsNaN(bp)
	switch {
	case an != bn:
		return an
	case !an && ap != bp:
		return ap < bp
	}
	return aseq < bseq
}

// TestDifferentialAgainstSortedModel drives random push/update/remove/pop
// sequences over priorities full of duplicates, NaN, ±Inf and ±0, and
// holds every pop — the item, not just its priority — to a model that
// sorts by (NaN first, priority, sequence). The order is total, so the
// heap's arity and layout must not show.
func TestDifferentialAgainstSortedModel(t *testing.T) {
	prios := []float64{math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0,
		-1, 1, 1, 2, 2.5, 1e300, -1e300, math.SmallestNonzeroFloat64}
	type entry struct {
		item *Item[int]
		prio float64
		seq  int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			q     Queue[int]
			model []entry
			seq   int
			spare []*Item[int] // popped and removed handles, pushed again later
		)
		drop := func(i int) {
			spare = append(spare, model[i].item)
			model = append(model[:i], model[i+1:]...)
		}
		popBoth := func(op int) {
			best := 0
			for i := range model {
				if refLess(model[i].prio, model[i].seq, model[best].prio, model[best].seq) {
					best = i
				}
			}
			min, _ := q.Min()
			it, err := q.PopMin()
			if err != nil {
				t.Fatalf("seed %d op %d: PopMin: %v", seed, op, err)
			}
			if it != model[best].item || min != it {
				t.Fatalf("seed %d op %d: popped item %d (Min %d), model wants %d (priority %v seq %d)",
					seed, op, it.Value, min.Value, model[best].item.Value, model[best].prio, model[best].seq)
			}
			if p := it.Priority(); p != model[best].prio && !(math.IsNaN(p) && math.IsNaN(model[best].prio)) {
				t.Fatalf("seed %d op %d: popped priority %v, model %v", seed, op, p, model[best].prio)
			}
			drop(best)
		}
		for op := 0; op < 4000; op++ {
			p := prios[rng.Intn(len(prios))]
			switch r := rng.Intn(10); {
			case r < 4 || len(model) == 0: // push, reusing a retired handle half the time
				it := &Item[int]{Value: op}
				if n := len(spare); n > 0 && rng.Intn(2) == 0 {
					it, spare = spare[n-1], spare[:n-1]
				}
				seq++
				q.Push(it, p)
				model = append(model, entry{item: it, prio: p, seq: seq})
			case r < 7: // update
				i := rng.Intn(len(model))
				seq++
				q.Update(model[i].item, p)
				model[i].prio, model[i].seq = p, seq
			case r < 8: // remove
				i := rng.Intn(len(model))
				q.Remove(model[i].item)
				drop(i)
			default:
				popBoth(op)
			}
			if q.Len() != len(model) {
				t.Fatalf("seed %d op %d: Len %d, model %d", seed, op, q.Len(), len(model))
			}
		}
		for op := 0; len(model) > 0; op++ {
			popBoth(-op)
		}
	}
}

// TestPushQueuedItemUpdates pins the one misuse Push tolerates: pushing a
// handle that is already in the queue re-prioritises it, it does not
// enter twice.
func TestPushQueuedItemUpdates(t *testing.T) {
	var q Queue[string]
	a := push(&q, "a", 1)
	push(&q, "b", 2)
	q.Push(a, 3)
	if q.Len() != 2 {
		t.Fatalf("Len = %d after re-push, want 2", q.Len())
	}
	if it, _ := q.PopMin(); it.Value != "b" {
		t.Errorf("popped %q, want b", it.Value)
	}
	if it, _ := q.PopMin(); it != a || it.Priority() != 3 {
		t.Errorf("popped %q at %v, want a at 3", it.Value, it.Priority())
	}
}

// TestQueueZeroAlloc pins the point of caller-owned handles: once the heap
// array has grown, push, update, remove and pop allocate nothing.
func TestQueueZeroAlloc(t *testing.T) {
	const n = 512
	rng := rand.New(rand.NewSource(7))
	var q Queue[int]
	items := make([]Item[int], n)
	for i := range items {
		items[i].Value = i
		q.Push(&items[i], rng.Float64())
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < n/2; i++ {
			it, err := q.PopMin()
			if err != nil {
				t.Fatal(err)
			}
			q.Push(it, it.Priority()+rng.Float64())
			u := &items[rng.Intn(n)]
			q.Update(u, u.Priority()+rng.Float64())
			r := &items[rng.Intn(n)]
			q.Remove(r)
			q.Push(r, rng.Float64())
		}
	})
	if allocs != 0 {
		t.Fatalf("push/update/remove/pop allocate %.1f allocs per run, want 0", allocs)
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
}
