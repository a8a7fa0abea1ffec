package analyze_test

import (
	"errors"
	"testing"

	"webcachesim/internal/analyze"
	"webcachesim/internal/trace"
)

type failingReader struct{ err error }

func (f *failingReader) Next() (*trace.Request, error) { return nil, f.err }

var errBoom = errors.New("boom")

func TestCharacterizePropagatesReaderError(t *testing.T) {
	if _, err := analyze.Characterize(&failingReader{err: errBoom}, "x"); !errors.Is(err, errBoom) {
		t.Errorf("got %v, want wrapped errBoom", err)
	}
}
