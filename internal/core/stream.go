package core

import (
	"errors"
	"fmt"
	"io"

	"webcachesim/internal/trace"
)

// StreamSimulator simulates directly from a trace.Reader without
// materializing a Workload — the path for multi-gigabyte traces that do
// not fit in memory. It performs the same preprocessing inline (the shared
// ingest pass: interning, eager class resolution, modification detection)
// and produces the same Result as BuildWorkload + Simulator; the
// equivalence is pinned by test.
//
// Because the total request count is unknown up front, warm-up is
// specified as an absolute request count rather than a fraction.
type StreamSimulator struct {
	sim *Simulator
	ing *ingest
}

// NewStreamSimulator prepares a streaming simulation. modifyThreshold is
// as in BuildWorkload (0 selects the paper's 5% rule; negative selects the
// any-change rule). The Config's WarmupFraction must be zero: the stream
// length is unknown, so warm-up is given to Run as an absolute count.
func NewStreamSimulator(cfg Config, modifyThreshold float64) (*StreamSimulator, error) {
	sim, err := newSimulator(nil, cfg, 0)
	if err != nil {
		return nil, err
	}
	if cfg.WarmupFraction != 0 {
		return nil, errBadConfig("streaming simulation takes warm-up as a request count via Run, not a fraction")
	}
	return &StreamSimulator{sim: sim, ing: newIngest(modifyThreshold)}, nil
}

// Run consumes the reader to EOF and returns the result. warmupRequests
// initial requests fill the cache unmeasured.
func (s *StreamSimulator) Run(r trace.Reader, warmupRequests int64) (*Result, error) {
	s.sim.warmup = warmupRequests
	s.sim.result.WarmupRequests = warmupRequests
	for {
		req, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return s.sim.Result(), nil
			}
			return nil, fmt.Errorf("core: stream simulate: %w", err)
		}
		s.Process(req)
	}
}

// Process simulates a single request and reports its disposition.
func (s *StreamSimulator) Process(req *trace.Request) Outcome {
	ev, newDoc := s.ing.step(req)
	if newDoc {
		// Grow the inner simulator's tables in lock step with the interner.
		// The interner's copy: the request's URL aliases the reader's block.
		s.sim.docs.add(s.ing.docs.Key(ev.DocID), ev.Class)
		s.sim.in = append(s.sim.in, false)
	}
	return s.sim.Process(&ev)
}

// Result returns the result accumulated so far.
func (s *StreamSimulator) Result() *Result { return s.sim.Result() }
