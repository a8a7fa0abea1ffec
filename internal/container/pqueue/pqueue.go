// Package pqueue implements an indexed, updatable 4-ary min-heap keyed by
// float64 priorities. It is the eviction substrate for the value-based
// replacement schemes (GDS, GD*, LFU-DA): each cached document embeds a
// heap handle, hits update the document's priority in place, and eviction
// pops the minimum.
//
// The heap array holds each entry's ordering key — priority and sequence
// number — inline next to the handle pointer, so a comparison reads only
// the array; a handle is written only when its entry moves. Handles are
// owned by the caller: Push links an Item the caller supplies (typically
// a field of the queued object), so the queue itself allocates nothing
// beyond growing its array.
//
// Ties are broken by insertion sequence (FIFO among equal priorities),
// which makes simulations deterministic and matches the behaviour of the
// reference implementations, where among equal H values the oldest entry is
// evicted first. (priority, sequence) is a total order, so the pop order
// does not depend on the heap's arity or layout.
package pqueue

import (
	"errors"
	"math"
)

// ErrEmpty reports an operation on an empty queue.
var ErrEmpty = errors.New("pqueue: empty queue")

// arity is the heap's branching factor. Four children share one or two
// cache lines and halve the depth of a binary heap.
const arity = 4

// Item is a queue handle, owned by the caller: set Value, hand the item to
// Queue.Push, and keep it at a stable address until it is popped or
// removed, after which it may be pushed again. The zero value is an item
// in no queue. An Item must not be in two queues at once.
type Item[T any] struct {
	// Value is the caller's payload.
	Value T

	priority float64
	// index is the item's heap position while queued. It is trusted only
	// when the slot there points back at the item, so a zero, stale or
	// foreign index is harmless.
	index int
}

// Priority returns the priority the item was last pushed or updated with.
func (it *Item[T]) Priority() float64 { return it.priority }

// slot is one heap array element: the ordering key inline, plus the handle
// it belongs to.
type slot[T any] struct {
	priority float64
	seq      uint64
	item     *Item[T]
}

// less orders slots by priority, breaking ties by sequence number. NaN
// priorities order below every real value (evicted first) and among
// themselves by sequence, so a poisoned priority cannot scramble the heap:
// with IEEE semantics NaN < x and NaN > x are both false, which would
// otherwise let a NaN entry settle anywhere and break the invariant
// silently. Both ordered comparisons failing means equal priorities or a
// NaN; only then is the NaN test paid.
func (a *slot[T]) less(b *slot[T]) bool {
	if a.priority < b.priority {
		return true
	}
	if a.priority > b.priority {
		return false
	}
	if an, bn := math.IsNaN(a.priority), math.IsNaN(b.priority); an != bn {
		return an
	}
	return a.seq < b.seq
}

// Queue is a min-heap of items ordered by priority. The zero value is an
// empty queue ready for use. Queue is not safe for concurrent use.
type Queue[T any] struct {
	heap []slot[T]
	seq  uint64
}

// Len returns the number of items in the queue.
func (q *Queue[T]) Len() int { return len(q.heap) }

// Holds reports whether it is currently in this queue.
func (q *Queue[T]) Holds(it *Item[T]) bool {
	i := it.index
	return i >= 0 && i < len(q.heap) && q.heap[i].item == it
}

// Push inserts the caller's item with the given priority. Pushing an item
// that is already in this queue updates it instead.
func (q *Queue[T]) Push(it *Item[T], priority float64) {
	if q.Holds(it) {
		q.Update(it, priority)
		return
	}
	q.seq++
	it.priority = priority
	s := slot[T]{priority: priority, seq: q.seq, item: it}
	q.heap = append(q.heap, s)
	q.place(q.up(len(q.heap)-1, &s), s)
}

// Min returns the item with the smallest priority without removing it.
// It returns ErrEmpty when the queue is empty.
func (q *Queue[T]) Min() (*Item[T], error) {
	if len(q.heap) == 0 {
		return nil, ErrEmpty
	}
	return q.heap[0].item, nil
}

// PopMin removes and returns the item with the smallest priority.
// It returns ErrEmpty when the queue is empty.
func (q *Queue[T]) PopMin() (*Item[T], error) {
	if len(q.heap) == 0 {
		return nil, ErrEmpty
	}
	it := q.heap[0].item
	q.removeAt(0)
	return it, nil
}

// Update changes the priority of an item in place, restoring heap order.
// Updating an item that is not in the queue is a no-op.
func (q *Queue[T]) Update(it *Item[T], priority float64) {
	if !q.Holds(it) {
		return // Item is not in this queue; ignore rather than corrupt.
	}
	// Refresh the sequence number so that, among equal priorities, a
	// just-updated (touched) item is evicted after untouched ones.
	q.seq++
	it.priority = priority
	i := it.index
	s := slot[T]{priority: priority, seq: q.seq, item: it}
	// The old key says which way the entry can move, so an entry whose key
	// grew — the usual case: ages and sequence numbers only grow — never
	// reads its parent.
	if q.heap[i].less(&s) {
		q.place(q.down(i, &s), s)
	} else {
		q.place(q.up(i, &s), s)
	}
}

// Remove deletes an item from the queue. Removing an item that is not in
// the queue is a no-op.
func (q *Queue[T]) Remove(it *Item[T]) {
	if q.Holds(it) {
		q.removeAt(it.index)
	}
}

// Items returns the queue contents in arbitrary (heap) order. The returned
// slice is freshly allocated.
func (q *Queue[T]) Items() []*Item[T] {
	out := make([]*Item[T], len(q.heap))
	for i := range q.heap {
		out[i] = q.heap[i].item
	}
	return out
}

func (q *Queue[T]) removeAt(i int) {
	q.heap[i].item.index = -1
	last := len(q.heap) - 1
	s := q.heap[last]
	q.heap[last] = slot[T]{} // drop the pointer for the collector
	q.heap = q.heap[:last]
	if i == last {
		return
	}
	// The tail entry fills the hole; it may belong either way from there.
	j := q.down(i, &s)
	if j == i {
		j = q.up(i, &s)
	}
	q.place(j, s)
}

// place stores s at i and points its handle there.
func (q *Queue[T]) place(i int, s slot[T]) {
	q.heap[i] = s
	s.item.index = i
}

// up moves the hole at i toward the root past every ancestor that s orders
// before, and returns where the hole ends up. Entries are moved, not
// swapped: s itself is written once, by place.
func (q *Queue[T]) up(i int, s *slot[T]) int {
	h := q.heap
	for i > 0 {
		parent := (i - 1) / arity
		if !s.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].item.index = i
		i = parent
	}
	return i
}

// down moves the hole at i toward the leaves past every smallest child
// that orders before s, and returns where the hole ends up.
func (q *Queue[T]) down(i int, s *slot[T]) int {
	h := q.heap
	for {
		first := arity*i + 1
		if first >= len(h) {
			break
		}
		// Only the last parent can have fewer than arity children.
		kids := h[first:min(first+arity, len(h))]
		smallest := 0
		for c := 1; c < len(kids); c++ {
			if kids[c].less(&kids[smallest]) {
				smallest = c
			}
		}
		if !kids[smallest].less(s) {
			break
		}
		h[i] = kids[smallest]
		h[i].item.index = i
		i = first + smallest
	}
	return i
}
