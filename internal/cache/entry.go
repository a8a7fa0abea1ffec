package cache

import (
	"strconv"
	"sync/atomic"
	"time"

	"webcachesim/internal/policy"
	"webcachesim/internal/pool"
)

// Entry is one cached object. Body and the header fields are immutable
// while any reference is held — concurrent readers serve them without
// copying. Doc carries the policy-facing identity (key, size, class); a
// stored Doc has no dense ID (Insert sets it to -1).
//
// # Reference counting
//
// An entry's body may live in a pooled buffer (internal/pool), and pooled
// memory must not return to the pool while any reader is still serving
// it. The contract:
//
//   - NewEntry/NewPooledEntry return the entry holding ONE reference — the
//     creator's (in the proxy, the fetch result that will be handed to the
//     miss leader).
//   - Insert acquires its own reference when the entry becomes resident,
//     and the cache releases it when the entry leaves (eviction, Remove,
//     replacement).
//   - Get/GetBytes return the entry already acquired on the caller's
//     behalf; the caller must Release exactly once when done with Body.
//   - When the count reaches zero the pooled buffer (if any) returns to
//     its pool and Body becomes nil; the entry must not be used again.
//
// Entries built as struct literals (tests, embedders) start at zero
// references with no pooled buffer; for them Acquire/Release are pure
// accounting and the garbage collector owns the body, so legacy callers
// that never Release stay correct — they just cannot carry pooled bodies.
type Entry struct {
	Doc         *policy.Doc
	Body        []byte
	ContentType string
	Status      int
	// Expires, when non-zero, is the instant the entry becomes stale.
	// The cache itself does not expire entries — a stale entry stays
	// resident until evicted — the caller decides what staleness means
	// (the proxy revalidates, and serves stale only when the origin is
	// down).
	Expires time.Time

	// refs counts outstanding references; managed only via
	// Acquire/AcquireN/Release.
	refs atomic.Int32
	// buf is the pooled buffer backing Body; nil when the body is
	// GC-managed (struct-literal entries, pool-bypass allocations keep a
	// no-op handle).
	buf *pool.Buf
	// ctHdr/lenHdr are the pre-resolved header value slices the proxy's
	// zero-allocation hit path assigns directly into the response header
	// map. They are built once at construction and shared read-only by
	// every response that serves this entry.
	ctHdr  []string
	lenHdr []string
}

// NewEntry builds a refcounted entry over a GC-managed body. The returned
// entry holds the creator's reference.
func NewEntry(doc *policy.Doc, body []byte, contentType string, status int, expires time.Time) *Entry {
	e := &Entry{
		Doc:         doc,
		Body:        body,
		ContentType: contentType,
		Status:      status,
		Expires:     expires,
	}
	e.finishInit()
	return e
}

// NewPooledEntry builds a refcounted entry whose body is the first n
// bytes of a pooled buffer. The entry takes ownership of buf: it is
// released back to its pool when the last reference is dropped. The
// returned entry holds the creator's reference.
func NewPooledEntry(doc *policy.Doc, buf *pool.Buf, n int, contentType string, status int, expires time.Time) *Entry {
	e := &Entry{
		Doc:         doc,
		Body:        buf.B[:n:n],
		ContentType: contentType,
		Status:      status,
		Expires:     expires,
		buf:         buf,
	}
	e.finishInit()
	return e
}

// finishInit sets the creator reference and pre-resolves the header value
// slices served on the hit path.
func (e *Entry) finishInit() {
	e.refs.Store(1)
	if e.ContentType != "" {
		e.ctHdr = []string{e.ContentType}
	}
	e.lenHdr = []string{strconv.Itoa(len(e.Body))}
}

// Acquire takes one additional reference. The caller must already hold a
// reference (or the shard lock that guarantees the cache's reference is
// live); acquiring a dead entry is a bug.
func (e *Entry) Acquire() { e.refs.Add(1) }

// AcquireN takes n additional references in one step — the miss leader
// uses it to grant one reference per coalesced consumer before any of
// them can run.
func (e *Entry) AcquireN(n int32) {
	if n > 0 {
		e.refs.Add(n)
	}
}

// Release drops one reference. When the last reference goes, the pooled
// buffer (if any) returns to its pool and Body is cleared so a
// use-after-release fails fast instead of reading recycled bytes.
func (e *Entry) Release() {
	if e.refs.Add(-1) != 0 {
		return
	}
	if b := e.buf; b != nil {
		// The final atomic decrement orders these writes after every other
		// holder's reads: nobody can still be looking at Body.
		e.buf = nil
		e.Body = nil
		b.Release()
	}
}

// Refs returns the current reference count — for tests and accounting
// assertions, not for lifetime decisions.
func (e *Entry) Refs() int32 { return e.refs.Load() }

// HeaderSlices returns the pre-resolved Content-Type and Content-Length
// header value slices (ct is nil when the entry has no content type).
// Callers assign them directly into an http.Header map; they are shared
// and must be treated as read-only. Both are nil on struct-literal
// entries that skipped the constructors.
func (e *Entry) HeaderSlices() (ct, length []string) { return e.ctHdr, e.lenHdr }
