package analyze_test

import (
	"errors"
	"testing"

	"webcachesim/internal/core"
	"webcachesim/internal/trace"
)

type failingReader struct{ err error }

func (f *failingReader) Next() (*trace.Request, error) { return nil, f.err }

var errBoom = errors.New("boom")

// A characterization is of a built workload, so a trace that cannot be
// read fails at ingest: the caller gets the reader's error and no
// workload to characterize.
func TestCharacterizePropagatesReaderError(t *testing.T) {
	w, err := core.BuildWorkload(&failingReader{err: errBoom}, 0)
	if !errors.Is(err, errBoom) {
		t.Errorf("got %v, want wrapped errBoom", err)
	}
	if w != nil {
		t.Errorf("got a workload %+v from a failed read, want nil", w)
	}
}
