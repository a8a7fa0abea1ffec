//go:build unix && !race

package pool

import (
	"runtime"
	"testing"
	"time"
)

// The reason the arena exists: bodies the pool holds are not Go heap, so
// the collector's 2× goal does not double them.
func TestBodiesAreOffHeap(t *testing.T) {
	const bufs, size = 64, 1 << 20
	p := New()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := make([]*Buf, bufs)
	for i := range held {
		held[i] = p.Get(size)
		for j := 0; j < size; j += 512 {
			held[i].B[j] = byte(i) // resident, not merely reserved
		}
	}
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Errorf("holding %d MiB of buffers grew HeapAlloc by %d bytes, want < 1 MiB", bufs*size>>20, grew)
	}
	if got := p.Stats().ArenaBytes; got != bufs*size {
		t.Errorf("ArenaBytes = %d, want %d", got, bufs*size)
	}
	for _, b := range held {
		b.Release()
	}
}

// settled collects until mappedBytes stops moving — every pool earlier
// tests dropped has been unmapped — and returns where it came to rest.
func settled() int64 {
	last, same := mappedBytes.Load(), 0
	for same < 3 {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		now := mappedBytes.Load()
		if now == last {
			same++
		} else {
			last, same = now, 0
		}
	}
	return last
}

// No caller closes a pool, so the arena must go when the pool does — and
// not a moment before: one handle still held keeps every chunk mapped,
// because its B points into one.
func TestArenaDiesWithPool(t *testing.T) {
	base := settled()
	held := func() *Buf {
		p := New()
		p.Get(1 << 20).Release() // an idle slot: the Pool ↔ Buf cycle exists
		return p.Get(4096)
	}()
	if got := mappedBytes.Load(); got != base+chunkBytes {
		t.Fatalf("mapped %d bytes with one pool in use, want %d", got-base, chunkBytes)
	}
	held.B[0] = 1
	if got := settled(); got != base+chunkBytes {
		t.Fatalf("mapped bytes went %d → %d while a handle was held", base+chunkBytes, got)
	}
	held.B[0]++ // still mapped, or this faults
	runtime.KeepAlive(held)
	held = nil

	for deadline := time.Now().Add(10 * time.Second); mappedBytes.Load() != base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes still mapped after the last handle was dropped", mappedBytes.Load()-base)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}
