// Package pool implements the size-classed buffer pool the serving path
// runs on. Bodies live outside the Go heap: a Pool takes anonymous memory
// mappings in 32 MiB chunks, bump-carves them into size-class slots and
// recycles the slots LIFO through a per-class free list, so the garbage
// collector never sees, scans or — with its 2× heap goal — doubles a
// cached byte, and the proxy's steady state performs no allocator work at
// all: origin bodies are read into pooled buffers, cached entries hand
// them back on their last release, and per-request scratch (key assembly,
// body drains) cycles through the same classes.
//
// A Pool hands out *Buf handles rather than raw slices. The handle pins
// the slot's class, is recycled along with its slot (a warm Get/Release
// pair allocates nothing), and is what keeps the memory mapped: the arena
// is unmapped when the Pool and every handle it issued have become
// unreachable — there is no Close — so B must never be kept without its
// handle. Requests larger than the biggest class are served by a plain
// heap allocation ("bypass" buffers) whose Release is a no-op — the
// garbage collector owns them, and Stats counts them separately.
//
// The arena is the peak of concurrent use per class, read off
// Stats.ArenaBytes, and its address space stays mapped while the pool
// lives. On Linux, Release gives the pages of a slot above 64 KiB back to
// the OS (madvise MADV_DONTNEED, arena_linux.go), so an idle large slot
// is address space only; the smaller classes share pages and keep theirs.
// Where no mapping call exists (!unix), and under the race detector —
// which does not watch memory outside the Go heap — chunks come from make
// instead (arena_heap.go) and no pages go back; everything above chunk
// acquisition is shared.
//
// Accounting is exact and monotonic: every Get counts an acquire, every
// Release of a pooled buffer a release, every freshly carved slot a new.
// Outstanding() — acquires minus releases — therefore counts live pooled
// buffers, the invariant the proxy's pool-balance test pins: after the
// server drains, exactly the buffers resident cache entries still hold.
package pool

import (
	"math/bits"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// minShift/maxShift bound the size classes: 512 B up to 16 MiB, which
	// covers everything the proxy caches (DefaultMaxObjectBytes is 8 MiB,
	// and the oversize probe reads one byte past it).
	minShift = 9
	maxShift = 24
	// Up to 1<<fineShift (64 KiB) the grid has four classes per octave —
	// slots there share pages, so their padding is resident — and powers of
	// two above it, where an unwritten tail is only address space
	// (docs/PROXY.md, "The buffer pool").
	fineShift   = 16
	fineClasses = 4*(fineShift-minShift) + 1 // 512 B … 64 KiB
	// NumClasses is the number of size classes.
	NumClasses = fineClasses + maxShift - fineShift

	// MinClassBytes and MaxClassBytes are the smallest and largest pooled
	// buffer sizes; requests above MaxClassBytes bypass the pool.
	MinClassBytes = 1 << minShift
	MaxClassBytes = 1 << maxShift

	// chunkBytes is how much address space the arena takes at a time. Only
	// pages a body has been written to are resident, so a chunk's uncarved
	// rest — and the tail abandoned when the next slot does not fit — costs
	// nothing.
	chunkBytes = 32 << 20
)

var pageBytes = os.Getpagesize()

// Buf is a pooled buffer handle. B is the usable slice, sized exactly to
// the class (or to the requested length for a bypass buffer); callers may
// reslice B freely but must keep the handle — to Release it, and because
// the handle is what keeps B's memory mapped. A Buf must be released
// exactly once and not used afterwards. The zero Buf is an empty bypass
// buffer.
type Buf struct {
	B     []byte
	pool  *Pool
	next  *Buf // the class's free list, while idle
	class int8 // -1 for bypass buffers the GC owns
	idle  bool // on the free list; guarded by the class lock
}

// Release returns the buffer to its pool. Releasing a bypass buffer is a
// no-op (the garbage collector reclaims it). The caller must not touch
// the handle or its bytes afterwards.
func (b *Buf) Release() {
	p := b.pool
	if p == nil {
		return
	}
	b.B = b.B[:cap(b.B)]
	cl := &p.classes[b.class]
	cl.mu.Lock()
	if b.idle {
		cl.mu.Unlock()
		// A second Release would put the slot on the free list twice and
		// hand it to two owners: corruption no later check could trace.
		panic("pool: Buf released twice")
	}
	b.idle = true
	if returnsPages && b.class >= fineClasses {
		// The slot is nobody's now: its owner let go, and Get cannot reach
		// it before it is on the free list. The syscall runs unlocked, so
		// the class's other slots do not wait for it.
		cl.mu.Unlock()
		ok := returnPages(b.B)
		cl.mu.Lock()
		if ok {
			cl.returned += int64(len(b.B))
		}
	}
	b.next, cl.free = cl.free, b
	cl.releases++
	cl.mu.Unlock()
}

// Len returns the buffer's class size in bytes (or the bypass buffer's
// allocated length).
func (b *Buf) Len() int { return cap(b.B) }

// class is one size class: its idle slots, most recently released first,
// and its accounting, all under one lock — the counters would be
// contended cache lines of their own otherwise.
type class struct {
	mu       sync.Mutex
	free     *Buf
	acquires int64
	releases int64
	news     int64
	returned int64 // bytes whose pages Release gave back to the OS
}

// Pool is a set of buffer size classes over one off-heap arena. The zero
// value is not usable; call New. All methods are safe for concurrent use.
type Pool struct {
	classes [NumClasses]class
	bypass  atomic.Int64 // Get calls larger than MaxClassBytes

	// carveMu guards rest, the uncarved remainder of the newest chunk.
	carveMu sync.Mutex
	rest    []byte
	chunks  *chunkList
}

// chunkList is the arena's mappings, and what unmaps them: a heap object
// the Pool alone points to and that points at nothing in the Pool ↔ Buf
// cycle, so its finalizer runs — a finalizer on an object inside a cycle
// never would — exactly when the Pool and every handle are unreachable.
type chunkList struct{ mapped [][]byte }

func (cl *chunkList) unmap() {
	for _, c := range cl.mapped {
		unmapChunk(c)
	}
}

// New creates an empty pool; it maps nothing until the first Get.
func New() *Pool {
	p := &Pool{chunks: &chunkList{}}
	runtime.SetFinalizer(p.chunks, (*chunkList).unmap)
	return p
}

// Default is the process-wide shared pool. Components that want isolated
// accounting (tests, benchmarks) create their own with New.
var Default = New()

// classFor returns the class index for a request of n bytes, or -1 when n
// exceeds the largest class.
func classFor(n int) int {
	if n > MaxClassBytes {
		return -1
	}
	if n <= MinClassBytes {
		return 0
	}
	e := bits.Len(uint(n-1)) - 1 // 1<<e < n <= 1<<(e+1)
	if e >= fineShift {
		return fineClasses + e - fineShift
	}
	// The quarter of octave e that n-1 falls in: its two bits below the top.
	return 4*(e-minShift) + (n-1)>>(e-2)&3 + 1
}

// classSize returns class c's slot size in bytes.
func classSize(c int) int {
	if c >= fineClasses {
		return 1 << (fineShift + c - fineClasses + 1)
	}
	return (4 + c%4) << (minShift - 2 + c/4)
}

// Get returns a buffer with at least n usable bytes: the smallest class
// that fits, with B sliced to the full class size. The bytes are not
// zeroed. Requests larger than MaxClassBytes bypass the pool entirely and
// come straight from the heap (their Release is a no-op).
func (p *Pool) Get(n int) *Buf {
	c := classFor(n)
	if c < 0 {
		p.bypass.Add(1)
		return &Buf{B: make([]byte, n), class: -1}
	}
	cl := &p.classes[c]
	cl.mu.Lock()
	cl.acquires++
	if b := cl.free; b != nil {
		cl.free, b.next = b.next, nil
		b.idle = false
		cl.mu.Unlock()
		return b
	}
	cl.news++
	cl.mu.Unlock()
	return &Buf{B: p.carve(classSize(c)), pool: p, class: int8(c)}
}

// carve cuts a fresh slot off the arena, taking a new chunk when the
// current one cannot hold it.
func (p *Pool) carve(size int) []byte {
	p.carveMu.Lock()
	defer p.carveMu.Unlock()
	if size > 1<<fineShift {
		// A large slot starts on a page boundary, so that Release returns
		// all of it. Chunks are page-aligned and whole pages long, so rest
		// is len(rest) mod the page size past the boundary before it.
		p.rest = p.rest[len(p.rest)%pageBytes:]
	}
	if len(p.rest) < size {
		chunk, err := mapChunk(chunkBytes)
		if err != nil { // arena_heap.go, or the OS refused: heap memory its slots keep alive
			chunk = make([]byte, chunkBytes)
		} else {
			p.chunks.mapped = append(p.chunks.mapped, chunk)
		}
		p.rest = chunk
	}
	slot := p.rest[:size:size]
	p.rest = p.rest[size:]
	return slot
}

// Grow returns a buffer of at least n bytes carrying b's first len bytes,
// releasing b. It is the pooled replacement for append-style growth: the
// copy runs once per class step, so reading an unknown-length stream
// costs O(total bytes) copying overall, like append, but recycles every
// intermediate buffer.
func (p *Pool) Grow(b *Buf, used, n int) *Buf {
	if n <= cap(b.B) {
		return b
	}
	nb := p.Get(n)
	copy(nb.B, b.B[:used])
	b.Release()
	return nb
}

// Stats is a point-in-time aggregate of the pool's accounting.
type Stats struct {
	// Acquires and Releases count Get and Release calls on pooled
	// classes; News counts slots carved because the class had none idle.
	Acquires int64
	Releases int64
	News     int64
	// Bypass counts Get calls too large for any class, served unpooled.
	Bypass int64
	// ArenaBytes is the memory carved into slots so far, idle or held —
	// what the pool can have resident at most (a slot's pages become
	// resident only as bodies are written to them, and on Linux an idle
	// slot above 64 KiB has none).
	ArenaBytes int64
	// ReturnedBytes counts the bytes whose pages Release gave back to the
	// OS; each reuse of such a slot faults its pages in again.
	ReturnedBytes int64
}

// Outstanding returns the number of pooled buffers currently held by
// callers (acquired and not yet released).
func (s Stats) Outstanding() int64 { return s.Acquires - s.Releases }

// Stats aggregates the per-class counters.
func (p *Pool) Stats() Stats {
	s := Stats{Bypass: p.bypass.Load()}
	for c := range p.classes {
		cl := &p.classes[c]
		cl.mu.Lock()
		s.Acquires += cl.acquires
		s.Releases += cl.releases
		s.News += cl.news
		s.ArenaBytes += cl.news * int64(classSize(c))
		s.ReturnedBytes += cl.returned
		cl.mu.Unlock()
	}
	return s
}
