// Package core implements the paper's primary contribution: a trace-driven
// simulator of a single caching proxy that reports hit rate and byte hit
// rate broken down by document type, together with the cache-occupancy
// time series used by the adaptivity study (Figure 1) and a parallel
// policy × cache-size sweep runner.
//
// Simulation follows Section 4.1 of the paper: the first 10% of requests
// warm the cache without being counted; the simulator tracks the recorded
// size of every document and treats a size change of less than 5% between
// successive requests as a document modification (counted as a miss),
// while larger changes are attributed to interrupted transfers and do not
// invalidate the cached copy.
package core

import (
	"errors"
	"fmt"
	"io"
	"math"

	"webcachesim/internal/doctype"
	"webcachesim/internal/trace"
)

// DefaultModifyThreshold is the paper's 5% rule for distinguishing
// document modifications from interrupted transfers.
const DefaultModifyThreshold = 0.05

// Event is one preprocessed request: the document resolved to a dense ID,
// the class computed, and the modification decision made. Modification
// detection depends only on the request stream — never on the policy or
// cache size — so it runs once per trace, and every simulator in a sweep
// replays the same immutable event stream.
type Event struct {
	// DocID indexes the workload's document table.
	DocID int32
	// Class is the document's content class.
	Class doctype.Class
	// Modified marks a request to a document whose size changed by less
	// than the modification threshold since its previous request; such a
	// request is always a miss and invalidates the cached copy.
	Modified bool
	// DocSize is the full document size charged against cache capacity at
	// this point of the trace.
	DocSize int64
	// TransferSize is the number of bytes this request delivered, counted
	// toward byte hit rate.
	TransferSize int64
	// UnixMillis is the request completion time carried through from the
	// trace (informational; replay never depends on it).
	UnixMillis int64
}

// Workload is a preprocessed request stream ready for simulation. It is
// immutable by construction: BuildWorkload resolves document IDs, classes,
// sizes and modification decisions in one ingest pass, and nothing is
// written afterwards — the concurrent cells of a Sweep share one Workload
// with zero synchronization. The stream is stored as parallel columns
// (structure of arrays) rather than a slice of Events, which keeps each
// column dense and lets the replay loop touch only the bytes it needs.
type Workload struct {
	// cols is the workload's WCT3 image: the per-request columns in trace
	// order, the per-document tables indexed by DocID, the byte totals and
	// the resolved modification threshold the Modified column embodies.
	cols trace.Columnar
	// keys is the document table (URLs in ID order).
	keys []string
}

// NumDocs returns the number of distinct documents.
func (w *Workload) NumDocs() int { return len(w.keys) }

// NumRequests returns the number of requests.
func (w *Workload) NumRequests() int { return w.cols.NumRequests() }

// Event gathers row i of the columns into an Event value. The copy is a
// handful of words; the returned value is the caller's own (Workload
// columns are never exposed mutably).
func (w *Workload) Event(i int) Event {
	ev := w.replayEvent(i)
	ev.UnixMillis = w.cols.Millis[i]
	return ev
}

// replayEvent is Event without the timestamp, a column replay never reads
// and so need not load.
func (w *Workload) replayEvent(i int) Event {
	return Event{
		DocID:        w.cols.DocID[i],
		Class:        w.cols.Class[i],
		Modified:     w.cols.Modified[i],
		DocSize:      w.cols.DocSize[i],
		TransferSize: w.cols.Transfer[i],
	}
}

// Key returns the URL of a document ID.
func (w *Workload) Key(id int32) string { return w.keys[id] }

// Keys returns the document table in ID order. The slice is shared with
// the workload and must not be modified.
func (w *Workload) Keys() []string { return w.keys }

// DocClass returns the class of a document ID (the class of its first
// request).
func (w *Workload) DocClass(id int32) doctype.Class { return w.cols.DocClass[id] }

// FinalSize returns a document's final recorded size.
func (w *Workload) FinalSize(id int32) int64 { return w.cols.FinalSize[id] }

// TotalBytes returns the total requested data (sum of transfer sizes).
func (w *Workload) TotalBytes() int64 { return w.cols.TotalBytes }

// DistinctBytes returns the total size of distinct documents at their
// final recorded size — the paper's "overall size" of a trace, against
// which cache sizes are expressed as percentages.
func (w *Workload) DistinctBytes() int64 { return w.cols.DistinctBytes }

// The floors CapacityAt clamps to. Any positive capacity is simulable, so
// the commands guarantee one byte; the paper's experiments say nothing
// below 1 MB, which also keeps their tiny test workloads meaningful.
const (
	FloorByte int64 = 1
	FloorMB   int64 = 1 << 20
)

// CapacityAt converts a cache size given as a percentage of the overall
// size (the paper's x-axis, §4.2) into bytes, never less than floor.
func (w *Workload) CapacityAt(pct float64, floor int64) int64 {
	return max(int64(pct/100*float64(w.cols.DistinctBytes)), floor)
}

// ModifyThreshold returns the resolved modification threshold the
// workload's modification decisions were made with (never 0; negative
// selects the any-change ablation rule).
func (w *Workload) ModifyThreshold() float64 { return w.cols.Threshold }

// BuildWorkload scans a preprocessed request stream and produces the
// immutable workload replayed by simulations. threshold is the relative
// size-change bound below which a change counts as a modification; pass 0
// for the paper's 5% default. A negative threshold applies the
// "any size change is a modification" rule of Jin & Bestavros, which the
// paper explicitly deviates from (kept for the ablation study).
func BuildWorkload(r trace.Reader, threshold float64) (*Workload, error) {
	var c trace.Columnar
	ing := newIngest(threshold)
	for {
		req, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("core: build workload: %w", err)
		}
		ev, _ := ing.step(req)
		c.DocID = append(c.DocID, ev.DocID)
		c.Class = append(c.Class, ev.Class)
		c.Modified = append(c.Modified, ev.Modified)
		c.DocSize = append(c.DocSize, ev.DocSize)
		c.Transfer = append(c.Transfer, ev.TransferSize)
		c.Millis = append(c.Millis, ev.UnixMillis)
		c.TotalBytes += ev.TransferSize
	}
	c.DocClass = ing.classOf
	c.FinalSize = ing.last
	c.Threshold = ing.threshold
	// Tally the distinct-document volume at final sizes.
	for _, s := range c.FinalSize {
		c.DistinctBytes += s
	}
	// Only the key table outlives the pass; the interner's URL→ID map goes
	// with it.
	return &Workload{cols: c, keys: ing.docs.Keys()}, nil
}

// ingest is the one-pass preprocessing shared by BuildWorkload and
// StreamSimulator: URL interning, eager class resolution (the trace's
// Request structs are never written to), size inference and the
// modification decision.
type ingest struct {
	docs      *trace.Interner
	classOf   []doctype.Class
	last      []int64
	threshold float64
}

func newIngest(threshold float64) *ingest {
	if threshold == 0 {
		threshold = DefaultModifyThreshold
	}
	return &ingest{docs: trace.NewInterner(), threshold: threshold}
}

// step preprocesses one request into an Event; newDoc reports whether the
// request introduced a document (its ID is then the highest yet).
func (g *ingest) step(req *trace.Request) (ev Event, newDoc bool) {
	known := g.docs.Len()
	id := g.docs.Intern(req.URL)
	if newDoc = int(id) == known; newDoc {
		g.classOf = append(g.classOf, req.Classify())
		g.last = append(g.last, 0)
	}

	size := req.DocSize
	knownFull := size > 0 // the trace recorded the full document size
	if size <= 0 {
		size = req.TransferSize
	}
	if size <= 0 {
		size = 1 // zero-byte responses still occupy an entry
	}
	modified, docSize := decideModification(g.threshold, g.last[id], size, knownFull)
	g.last[id] = docSize

	transfer := req.TransferSize
	if transfer < 0 {
		transfer = 0
	}
	return Event{
		DocID:        id,
		Class:        g.classOf[id],
		Modified:     modified,
		DocSize:      docSize,
		TransferSize: transfer,
		UnixMillis:   req.UnixMillis,
	}, newDoc
}

// decideModification applies the paper's Section 4.1 rule to a document's
// previous recorded size and the size observed now. A relative change
// below the threshold is a modification (the request is a miss and
// invalidates the cached copy); an equal or larger change is an
// interrupted transfer, and the document keeps its largest observed size.
// A negative threshold selects the Jin & Bestavros any-change rule. prev
// of zero means the document has not been seen.
//
// knownFull reports whether the observed size is a recorded full document
// size rather than one inferred from the bytes transferred. An inferred
// size that comes in *below* the history maximum is a near-complete
// aborted transfer, not a smaller document: it neither modifies the
// document nor shrinks its recorded size. Without this guard a 97%-read
// abort would fall inside the modification window and ratchet the
// recorded size down.
func decideModification(threshold float64, prev, size int64, knownFull bool) (modified bool, docSize int64) {
	docSize = size
	if prev <= 0 {
		return false, docSize
	}
	if !knownFull && size < prev {
		// Aborted transfer of a known-larger document: unchanged, and the
		// recorded size never shrinks.
		return false, prev
	}
	delta := math.Abs(float64(size-prev)) / float64(prev)
	switch {
	case size == prev:
		// Unchanged document.
	case threshold < 0:
		// Ablation rule: any size change is a modification.
		modified = true
	case delta < threshold:
		modified = true
	default:
		// Interrupted transfer: the document itself is unchanged; keep
		// charging its largest observed size.
		if prev > size {
			docSize = prev
		}
	}
	return modified, docSize
}
