//go:build linux && !race

package pool

import (
	"bytes"
	"syscall"
	"testing"
	"unsafe"
)

// resident counts the pages of b the kernel holds in memory, by
// mincore(2) over the pages b touches, and returns their number too.
func resident(t *testing.T, b []byte) (n, pages int) {
	t.Helper()
	start := uintptr(unsafe.Pointer(&b[0])) &^ uintptr(pageBytes-1)
	end := uintptr(unsafe.Pointer(&b[len(b)-1])) + 1
	vec := make([]byte, (end-start+uintptr(pageBytes)-1)/uintptr(pageBytes))
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE, start, end-start, uintptr(unsafe.Pointer(&vec[0])))
	if errno != 0 {
		t.Fatalf("mincore: %v", errno)
	}
	for _, v := range vec {
		n += int(v & 1)
	}
	return n, len(vec)
}

func fill(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

// A released large slot is address space only: every page goes back,
// although a fine slot carved before it left the chunk off a page
// boundary. Reused, it reads as zeroes.
func TestReleaseReturnsLargeSlotPages(t *testing.T) {
	p := New()
	defer p.Get(600).Release()
	b := p.Get(1 << 20)
	fill(b.B, 7)
	if got, pages := resident(t, b.B); got != pages {
		t.Fatalf("%d of %d pages resident after the write", got, pages)
	}
	slot := b.B
	b.Release()
	if got, pages := resident(t, slot); got != 0 {
		t.Errorf("%d of %d pages of a released 1 MiB slot still resident, want 0", got, pages)
	}
	if got := p.Stats().ReturnedBytes; got != 1<<20 {
		t.Errorf("ReturnedBytes = %d, want %d", got, 1<<20)
	}
	b = p.Get(1 << 20)
	if &b.B[0] != &slot[0] || b.B[len(b.B)-1] != 0 {
		t.Errorf("the reacquired slot is another one, or kept its bytes")
	}
	b.Release()
}

// A fine slot shares its pages with its neighbours, so Release leaves
// them, and it counts nothing returned.
func TestReleaseKeepsFineSlotPages(t *testing.T) {
	p := New()
	b := p.Get(64 << 10)
	fill(b.B, 7)
	slot := b.B
	want, _ := resident(t, slot)
	b.Release()
	if got, _ := resident(t, slot); got != want {
		t.Errorf("%d pages of a released 64 KiB slot resident, want %d", got, want)
	}
	if got := p.Stats().ReturnedBytes; got != 0 {
		t.Errorf("ReturnedBytes = %d after a fine Release, want 0", got)
	}
}

// A second Release of one handle panics before a page goes back: the
// pages written through the stale handle, as a buggy caller might, stay
// resident. And the slot went on the free list once, so its next owner's
// bytes survive another Get of the class.
func TestDoubleReleaseReturnsNoPages(t *testing.T) {
	p := New()
	b := p.Get(1 << 20)
	b.Release()
	stale := b.B
	fill(stale, 7)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second Release did not panic")
			}
		}()
		b.Release()
	}()
	if got, pages := resident(t, stale); got != pages {
		t.Errorf("%d of %d pages resident after the refused Release", got, pages)
	}
	owner := p.Get(1 << 20)
	fill(owner.B, 1)
	other := p.Get(1 << 20)
	fill(other.B, 2)
	if !bytes.Equal(owner.B, bytes.Repeat([]byte{1}, len(owner.B))) {
		t.Error("the owner's bytes were overwritten: the slot was handed out twice")
	}
	if got := p.Stats().ReturnedBytes; got != 1<<20 {
		t.Errorf("ReturnedBytes = %d, want %d: only the first Release returns", got, 1<<20)
	}
	owner.Release()
	other.Release()
}
