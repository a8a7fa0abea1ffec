package intlist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// contents returns l's values from front to back.
func contents[T any](l *List[T]) []T {
	out := make([]T, 0, l.Len())
	for e := l.root.next; len(out) < l.Len(); e = e.next {
		out = append(out, e.Value)
	}
	return out
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyList(t *testing.T) {
	var l List[int]
	if l.Len() != 0 || l.Back() != nil {
		t.Error("zero-value list not empty")
	}
}

func TestPushFrontBack(t *testing.T) {
	var l List[int]
	l.PushFront(3)
	l.PushFront(2)
	l.PushFront(1)
	if got := contents(&l); !equal(got, []int{1, 2, 3}) || l.Back().Value != 3 {
		t.Errorf("contents %v, back %v; want [1 2 3], 3", got, l.Back().Value)
	}
}

func TestRemove(t *testing.T) {
	var l List[int]
	c := l.PushFront(3)
	b := l.PushFront(2)
	a := l.PushFront(1)
	if got := l.Remove(b); got != 2 {
		t.Errorf("Remove returned %d, want 2", got)
	}
	if got := contents(&l); !equal(got, []int{1, 3}) {
		t.Errorf("contents = %v, want [1 3]", got)
	}
	l.Remove(a)
	l.Remove(c)
	if l.Len() != 0 {
		t.Errorf("Len = %d, want 0", l.Len())
	}
	// Double remove is a no-op.
	l.Remove(a)
	if l.Len() != 0 {
		t.Error("double remove corrupted length")
	}
}

// TestMoveToFrontBack moves the back element to the front, then the front
// element, which is a no-op.
func TestMoveToFrontBack(t *testing.T) {
	var l List[string]
	c := l.PushFront("c")
	l.PushFront("b")
	a := l.PushFront("a")

	l.MoveToFront(c)
	if got := contents(&l); got[0] != "c" || got[2] != "b" || l.Back().Value != "b" {
		t.Errorf("after MoveToFront: %v", got)
	}
	l.MoveToFront(a)
	l.MoveToFront(a)
	if got := contents(&l); got[0] != "a" || got[1] != "c" {
		t.Errorf("after double MoveToFront: %v", got)
	}
}

func TestForeignElementOps(t *testing.T) {
	var l1, l2 List[int]
	e := l1.PushFront(1)
	l2.PushFront(2)
	l2.MoveToFront(e) // no-op
	l2.Remove(e)      // no-op
	if l2.Len() != 1 || l1.Len() != 1 {
		t.Error("foreign element operations corrupted lists")
	}
}

// TestRandomOpsAgainstSlice cross-checks list behaviour against a slice
// model over a long random operation sequence.
func TestRandomOpsAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var l List[int]
	var elems []*Element[int]
	var model []int
	for op := 0; op < 4000; op++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(model) == 0: // push front
			elems = append([]*Element[int]{l.PushFront(op)}, elems...)
			model = append([]int{op}, model...)
		case r < 6: // remove random
			i := rng.Intn(len(model))
			l.Remove(elems[i])
			elems = append(elems[:i], elems[i+1:]...)
			model = append(model[:i], model[i+1:]...)
		default: // move to front
			i := rng.Intn(len(model))
			l.MoveToFront(elems[i])
			e, v := elems[i], model[i]
			elems = append(elems[:i], elems[i+1:]...)
			model = append(model[:i], model[i+1:]...)
			elems = append([]*Element[int]{e}, elems...)
			model = append([]int{v}, model...)
		}
		if l.Len() != len(model) {
			t.Fatalf("op %d: Len %d, model %d", op, l.Len(), len(model))
		}
	}
	if got := contents(&l); !equal(got, model) {
		t.Fatalf("final contents diverged:\n list: %v\nmodel: %v", got, model)
	}
}

// Property: pushing values to the front and iterating returns them in
// reverse order.
func TestPushFrontOrderProperty(t *testing.T) {
	f := func(vals []int) bool {
		var l List[int]
		for i := len(vals) - 1; i >= 0; i-- {
			l.PushFront(vals[i])
		}
		return equal(contents(&l), vals) && l.Len() == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLinkFront links caller-owned elements: they behave like elements the
// list made, can be relinked after removal, cannot be linked twice, and
// linking allocates nothing.
func TestLinkFront(t *testing.T) {
	type node struct {
		id   int
		elem Element[*node]
	}
	nodes := make([]node, 4)
	var l, other List[*node]
	link := func(to *List[*node], n *node) {
		n.elem.Value = n
		to.LinkFront(&n.elem)
	}
	for i := range nodes {
		nodes[i].id = i
		link(&l, &nodes[i])
	}
	ids := func() []int {
		var out []int
		for _, n := range contents(&l) {
			out = append(out, n.id)
		}
		return out
	}
	if got := ids(); !equal(got, []int{3, 2, 1, 0}) {
		t.Fatalf("after linking: %v, want [3 2 1 0]", got)
	}
	link(&other, &nodes[1]) // already in l: no-op
	link(&l, &nodes[1])     // likewise
	if l.Len() != 4 || other.Len() != 0 {
		t.Fatalf("linking a linked element changed lengths: %d, %d", l.Len(), other.Len())
	}
	l.MoveToFront(&nodes[0].elem)
	if got := l.Remove(l.Back()); got != &nodes[1] {
		t.Fatalf("Back = node %d, want 1", got.id)
	}
	link(&other, &nodes[1])
	if got := ids(); !equal(got, []int{0, 3, 2}) || other.Back().Value != &nodes[1] {
		t.Fatalf("after move+remove+relink: %v, other back %v", got, other.Back().Value.id)
	}
	allocs := testing.AllocsPerRun(100, func() {
		n := l.Remove(l.Back())
		link(&l, n)
	})
	if allocs != 0 {
		t.Fatalf("Remove+LinkFront allocate %.1f allocs per run, want 0", allocs)
	}
}
