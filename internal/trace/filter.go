package trace

import (
	"errors"
	"fmt"
	"io"
)

// FilterStats counts the outcome of preprocessing a stream.
type FilterStats struct {
	// Passed counts requests that survived the filter.
	Passed int64
	// DroppedURL counts requests excluded by the dynamic-content URL
	// heuristics (cgi or "?").
	DroppedURL int64
	// DroppedStatus counts requests excluded by the status whitelist.
	DroppedStatus int64
	// DroppedMethod counts non-GET requests.
	DroppedMethod int64
	// Malformed counts unparseable lines that were skipped.
	Malformed int64
}

// Dropped returns the total number of requests removed by preprocessing.
func (s FilterStats) Dropped() int64 {
	return s.DroppedURL + s.DroppedStatus + s.DroppedMethod + s.Malformed
}

// Parsed returns the number of lines that decoded into a request, kept or
// dropped. Zero at end of stream means the input was not a trace at all.
func (s FilterStats) Parsed() int64 {
	return s.Passed + s.DroppedURL + s.DroppedStatus + s.DroppedMethod
}

// FilterReader applies the paper's preprocessing (Section 2) to an
// underlying stream: it drops uncacheable requests, and counts and skips
// malformed lines instead of propagating the parse error.
type FilterReader struct {
	src   Reader
	stats FilterStats
}

var _ Reader = (*FilterReader)(nil)

// NewFilterReader wraps src with the preprocessing filter. Malformed lines
// are skipped (and counted) rather than surfaced.
func NewFilterReader(src Reader) *FilterReader {
	return &FilterReader{src: src}
}

// Next returns the next cacheable request, or io.EOF.
func (f *FilterReader) Next() (*Request, error) {
	for {
		req, err := f.src.Next()
		if err != nil {
			var pe *ParseError
			if errors.As(err, &pe) {
				f.stats.Malformed++
				continue
			}
			return nil, err
		}
		switch {
		case req.Method != "" && req.Method != "GET":
			f.stats.DroppedMethod++
		case !CacheableStatus(req.Status):
			f.stats.DroppedStatus++
		case UncacheableURL(req.URL):
			f.stats.DroppedURL++
		default:
			f.stats.Passed++
			return req, nil
		}
	}
}

// Stats returns the filter counters accumulated so far.
func (f *FilterReader) Stats() FilterStats { return f.stats }

// SliceReader replays an in-memory request slice. It is the bridge between
// the synthetic generator and the simulator when no file round-trip is
// needed.
type SliceReader struct {
	reqs []*Request
	pos  int
}

var _ Reader = (*SliceReader)(nil)

// NewSliceReader returns a reader over reqs. The slice is not copied; the
// caller must not mutate it while reading.
func NewSliceReader(reqs []*Request) *SliceReader {
	return &SliceReader{reqs: reqs}
}

// Next returns the next request or io.EOF.
func (s *SliceReader) Next() (*Request, error) {
	if s.pos >= len(s.reqs) {
		return nil, io.EOF
	}
	r := s.reqs[s.pos]
	s.pos++
	return r, nil
}

// Reset rewinds the reader to the beginning of the slice.
func (s *SliceReader) Reset() { s.pos = 0 }

// ReadAll drains a reader into a slice. It is intended for tests and small
// traces; large traces should be streamed.
func ReadAll(r Reader) ([]*Request, error) {
	var out []*Request
	for {
		req, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, fmt.Errorf("trace: read all: %w", err)
		}
		out = append(out, req)
	}
}
