package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder was created, so a span file is self-contained.
// Parent is the ID of the span that caused this one (0 for a root), and
// Req groups the spans of one client request (0 when the span belongs to
// no request — an offline phase or a [direct] batch).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// reqSelf as a span's Req means "this span is the request": add replaces
// it with the span's own ID.
const reqSelf = -1

// recorder keeps spans in memory until the run ends; nothing is written
// while anything is being timed. A nil *recorder records nothing, which is
// how the untraced run skips every span with one pointer test.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// since converts an instant to the recorder's time axis.
func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add appends finished spans, assigning IDs, and returns the ID given to
// the first of them (the rest follow consecutively).
func (r *recorder) add(spans ...span) int64 {
	if r == nil || len(spans) == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	first := int64(len(r.spans)) + 1
	for i := range spans {
		spans[i].ID = first + int64(i)
		if spans[i].Req == reqSelf {
			spans[i].Req = spans[i].ID
		}
		r.spans = append(r.spans, spans[i])
	}
	return first
}

// timed runs fn inside a root span called name.
func (r *recorder) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if r != nil {
		r.add(span{Name: name, Start: r.since(start), End: r.since(end)})
	}
	return end.Sub(start)
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			_ = f.Close() // the encode error is the one worth reporting
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // as above
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// selfTime is a span's duration minus the part of its interval that its
// children cover: overlapping children are merged first, and a child is
// clipped to its parent, so concurrent or overrunning children are never
// subtracted twice.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return parent.End - parent.Start - covered
}
