package core

import (
	"fmt"
	"os"

	"webcachesim/internal/trace"
	"webcachesim/internal/trace/mm"
)

// A Workload's columns are a trace.Columnar value, so a WCT3 file is the
// workload's image: writing adds the string table and encodes, and
// loading adopts the decoded columns — no per-event work either way.
// Writing bakes the resolved modification threshold into the file (the
// Modified column was computed with it); loading back therefore skips
// BuildWorkload entirely, and when the file is memory-mapped the columns
// alias the page cache: replay of a trace larger than RAM touches only the
// pages the kernel faults in.

// WriteColumnar writes the workload as a WCT3 file at path.
func (w *Workload) WriteColumnar(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: write columnar: %w", err)
	}
	c := w.cols
	c.SetKeys(w.keys)
	if err := trace.EncodeColumnar(f, &c); err != nil {
		// The encode error is the story; the half-written file is garbage
		// either way.
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("core: write columnar %s: %w", path, err)
	}
	return nil
}

// OpenColumnarWorkload maps (or reads, where mapping is unavailable) a
// WCT3 file into a ready-to-replay Workload. The returned mapping backs
// every column and URL string of the workload; close it only after the
// workload and all results derived from its strings are done. The columns
// are adopted, not copied; the key table of string headers is the only
// per-document allocation. A file that is not WCT3 reports
// trace.ErrNotColumnar.
func OpenColumnarWorkload(path string) (*Workload, *mm.Mapping, error) {
	c, m, err := trace.OpenColumnar(path)
	if err != nil {
		return nil, nil, err
	}
	return &Workload{cols: *c, keys: c.Keys()}, m, nil
}
