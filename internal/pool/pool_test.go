package pool

import (
	"runtime"
	"sync"
	"testing"
)

// The class grid: every request gets the smallest class that holds it,
// classes grow strictly, the ends are where the exported bounds say, and
// padding is bounded — under a quarter of the request up to 64 KiB, where
// it is resident, and under the request itself above.
func TestClassFor(t *testing.T) {
	if got := classSize(0); got != MinClassBytes {
		t.Errorf("classSize(0) = %d, want %d", got, MinClassBytes)
	}
	if got := classSize(NumClasses - 1); got != MaxClassBytes {
		t.Errorf("classSize(%d) = %d, want %d", NumClasses-1, got, MaxClassBytes)
	}
	if got := classFor(MaxClassBytes + 1); got != -1 {
		t.Errorf("classFor(MaxClassBytes+1) = %d, want -1", got)
	}
	for _, n := range []int{0, 1, MinClassBytes} {
		if got := classFor(n); got != 0 {
			t.Errorf("classFor(%d) = %d, want 0", n, got)
		}
	}
	for c := 1; c < NumClasses; c++ {
		size, below := classSize(c), classSize(c-1)
		if size <= below {
			t.Fatalf("classSize(%d) = %d does not exceed classSize(%d) = %d", c, size, c-1, below)
		}
		// Both edges of the class and one request inside it: size fits
		// class c exactly, and one byte past the class below is already c.
		for _, n := range []int{below + 1, (below + size + 1) / 2, size} {
			if got := classFor(n); got != c {
				t.Errorf("classFor(%d) = %d, want %d (classes %d and %d bytes)", n, got, c, below, size)
			}
		}
		// below+1 is the class's worst fit: size/n only falls as n grows.
		if n := below + 1; n <= 64<<10 && 4*size >= 5*n {
			t.Errorf("classSize(classFor(%d)) = %d, want < 1.25·n", n, size)
		} else if size >= 2*n {
			t.Errorf("classSize(classFor(%d)) = %d, want < 2·n", n, size)
		}
	}
	// Every power of two in range is a class of its own.
	for n := MinClassBytes; n <= MaxClassBytes; n *= 2 {
		if got := classSize(classFor(n)); got != n {
			t.Errorf("classSize(classFor(%d)) = %d, want %[1]d", n, got)
		}
	}
}

func TestGetSizes(t *testing.T) {
	p := New()
	for _, n := range []int{0, 1, 100, 512, 513, 4096, 5000, 1 << 20} {
		b := p.Get(n)
		if len(b.B) < n {
			t.Errorf("Get(%d): len %d < requested", n, len(b.B))
		}
		if want := classSize(classFor(n)); len(b.B) != want || cap(b.B) != want || b.Len() != want {
			t.Errorf("Get(%d): len %d cap %d Len %d, want the class size %d", n, len(b.B), cap(b.B), b.Len(), want)
		}
		b.Release()
	}
}

func TestBypassOversize(t *testing.T) {
	p := New()
	n := MaxClassBytes + 1
	b := p.Get(n)
	if len(b.B) != n {
		t.Fatalf("bypass Get(%d): len %d", n, len(b.B))
	}
	if b.pool != nil || b.class != -1 {
		t.Fatalf("bypass buffer should not belong to the pool")
	}
	b.Release() // must be a no-op, not a panic
	st := p.Stats()
	if st.Bypass != 1 {
		t.Errorf("Bypass = %d, want 1", st.Bypass)
	}
	if st.Acquires != 0 || st.Releases != 0 {
		t.Errorf("bypass must not touch class counters: %+v", st)
	}
}

func TestReuseSameBuffer(t *testing.T) {
	p := New()
	b := p.Get(1000)
	ptr := &b.B[0]
	b.Release()
	b2 := p.Get(900) // same class
	if &b2.B[0] != ptr {
		t.Errorf("sequential Get after Release did not reuse the buffer")
	}
	if got := p.Stats().News; got != 1 {
		t.Errorf("News = %d, want 1 (one allocation, reused)", got)
	}
	b2.Release()
}

func TestReleaseRestoresFullClass(t *testing.T) {
	p := New()
	b := p.Get(600)
	b.B = b.B[:10] // caller resliced
	b.Release()
	b2 := p.Get(600)
	if want := classSize(classFor(600)); len(b2.B) != want {
		t.Errorf("reacquired buffer len %d, want full class %d", len(b2.B), want)
	}
	b2.Release()
}

func TestGrow(t *testing.T) {
	p := New()
	b := p.Get(512)
	for i := range b.B {
		b.B[i] = byte(i)
	}
	g := p.Grow(b, 512, 2000)
	if cap(g.B) < 2000 {
		t.Fatalf("Grow cap %d < 2000", cap(g.B))
	}
	for i := 0; i < 512; i++ {
		if g.B[i] != byte(i) {
			t.Fatalf("Grow lost byte %d", i)
		}
	}
	// Growing within capacity returns the same handle.
	if g2 := p.Grow(g, 2000, 100); g2 != g {
		t.Errorf("Grow within capacity must be a no-op")
	}
	g.Release()
	if out := p.Stats().Outstanding(); out != 0 {
		t.Errorf("Outstanding = %d after release, want 0", out)
	}
}

// Eight goroutines share four classes, so slots change hands constantly:
// each stamps the whole buffer it got, yields, and must read its stamp
// back — a slot out twice at once shows as a foreign stamp (and, under
// -race, as a report on the bytes) — and the ledger balances afterwards.
func TestStatsBalance(t *testing.T) {
	p := New()
	const workers, rounds = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b := p.Get(600 << ((g + i) % 4))
				stamp := byte(g<<5 | i&31)
				for j := range b.B {
					b.B[j] = stamp
				}
				runtime.Gosched()
				for j, v := range b.B {
					if v != stamp {
						t.Errorf("worker %d round %d: byte %d of %d is %#x, want %#x: the slot was handed out twice",
							g, i, j, len(b.B), v, stamp)
						return
					}
				}
				b.Release()
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Acquires != workers*rounds {
		t.Errorf("Acquires = %d, want %d", st.Acquires, workers*rounds)
	}
	if st.Outstanding() != 0 {
		t.Errorf("Outstanding = %d after drain, want 0", st.Outstanding())
	}
	if st.News > 4*workers {
		t.Errorf("News = %d: more slots carved than %d workers can hold across 4 classes", st.News, workers)
	}
}

// ArenaBytes is the carved slots' sizes summed, and reuse carves nothing.
func TestArenaBytes(t *testing.T) {
	p := New()
	if got := p.Stats().ArenaBytes; got != 0 {
		t.Fatalf("ArenaBytes = %d before the first Get, want 0", got)
	}
	var want int64
	for _, n := range []int{300, 5000, 5000, 70000} {
		defer p.Get(n).Release()
		want += int64(classSize(classFor(n)))
	}
	p.Get(300).Release() // a third small slot, then reused
	p.Get(300).Release()
	want += MinClassBytes
	if got := p.Stats().ArenaBytes; got != want {
		t.Errorf("ArenaBytes = %d, want %d", got, want)
	}
	p.Get(MaxClassBytes + 1) // bypass: heap, not arena
	if got := p.Stats().ArenaBytes; got != want {
		t.Errorf("ArenaBytes = %d after a bypass Get, want %d", got, want)
	}
}

// A slot on the free list twice would be handed to two owners; Release
// refuses instead.
func TestDoubleReleasePanics(t *testing.T) {
	p := New()
	b := p.Get(100)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Error("second Release did not panic")
		}
		if out := p.Stats().Outstanding(); out != 0 {
			t.Errorf("Outstanding = %d after the refused Release, want 0", out)
		}
	}()
	b.Release()
}

// The pool's whole point: a warm Get/Release cycle performs no allocator
// work.
func TestGetReleaseZeroAlloc(t *testing.T) {
	p := New()
	p.Get(4096).Release() // warm the class
	avg := testing.AllocsPerRun(1000, func() {
		b := p.Get(4096)
		b.B[0] = 1
		b.Release()
	})
	if avg != 0 {
		t.Errorf("warm Get/Release allocates %.2f per op, want 0", avg)
	}
}

func BenchmarkGetRelease(b *testing.B) {
	p := New()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			buf := p.Get(32 << 10)
			buf.B[0] = 1
			buf.Release()
		}
	})
}
