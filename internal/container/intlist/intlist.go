// Package intlist implements an intrusive doubly-linked list with O(1)
// splice operations. It is the recency substrate for LRU, the admission
// filters' ghost directories and GD*'s β estimator's URL table: elements
// carry their payload and can be moved to the front or removed from
// anywhere, the oldest found at the back, without allocation per operation
// beyond the element itself — and not even that when the caller embeds the
// Element in the object it lists and links it with LinkFront.
//
// Compared to container/list, this implementation is generic (no interface
// boxing on the hot path) and links elements the caller owns.
package intlist

// Element is a list node carrying a value of type T. Elements are created
// by the List methods, or supplied by the caller to LinkFront, and remain
// valid until removed. The zero value is an element in no list.
type Element[T any] struct {
	next, prev *Element[T]
	list       *List[T]

	// Value is the caller's payload.
	Value T
}

// List returns the list that holds e, or nil when e is in no list.
func (e *Element[T]) List() *List[T] { return e.list }

// List is a doubly-linked list with a sentinel root. The zero value is an
// empty list ready to use. List is not safe for concurrent use.
type List[T any] struct {
	root Element[T]
	len  int
}

func (l *List[T]) lazyInit() {
	if l.root.next == nil {
		l.root.next = &l.root
		l.root.prev = &l.root
	}
}

// Len returns the number of elements.
func (l *List[T]) Len() int { return l.len }

// Back returns the last element, or nil when the list is empty.
func (l *List[T]) Back() *Element[T] {
	if l.len == 0 {
		return nil
	}
	return l.root.prev
}

// PushFront inserts value at the front and returns its element.
func (l *List[T]) PushFront(value T) *Element[T] {
	l.lazyInit()
	return l.insertAfter(&Element[T]{Value: value}, &l.root)
}

// LinkFront inserts the caller's own element — typically a field of the
// listed object, with Value already set — at the front, so that listing
// allocates nothing. The element must stay at a stable address while
// linked; once removed it may be linked again. Linking an element that is
// already in a list is a no-op.
func (l *List[T]) LinkFront(e *Element[T]) {
	if e.list != nil {
		return
	}
	l.lazyInit()
	l.insertAfter(e, &l.root)
}

// Remove unlinks e from the list and returns its value. Removing an
// element that is not in this list is a no-op.
func (l *List[T]) Remove(e *Element[T]) T {
	if e.list == l {
		l.unlink(e)
	}
	return e.Value
}

// MoveToFront moves e to the front. It is a no-op when e is foreign or
// already first.
func (l *List[T]) MoveToFront(e *Element[T]) {
	if e.list != l || l.root.next == e {
		return
	}
	l.unlink(e)
	l.insertAfter(e, &l.root)
}

func (l *List[T]) insertAfter(e, at *Element[T]) *Element[T] {
	e.prev = at
	e.next = at.next
	e.prev.next = e
	e.next.prev = e
	e.list = l
	l.len++
	return e
}

func (l *List[T]) unlink(e *Element[T]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.next = nil
	e.prev = nil
	e.list = nil
	l.len--
}
