package core

import (
	"fmt"
	"os"

	"webcachesim/internal/trace"
	"webcachesim/internal/trace/mm"
)

// WCT3 bridge: a Workload's parallel columns are exactly what the columnar
// trace format stores, so conversion in either direction is a matter of
// wiring slices together — no per-event work. Writing bakes the resolved
// modification threshold into the file (the Modified column was computed
// with it); loading back therefore skips BuildWorkload entirely, and when
// the file is memory-mapped the columns alias the page cache: replay of a
// trace larger than RAM touches only the pages the kernel faults in.

// Columnar returns the workload as a trace.Columnar image. The column
// slices are shared with the workload, not copied; the string table is
// materialized (the only per-document cost).
func (w *Workload) Columnar() *trace.Columnar {
	c := &trace.Columnar{
		Millis:   w.millis,
		DocID:    w.docID,
		Class:    w.class,
		Modified: w.modified,
		DocSize:  w.docSize,
		Transfer: w.transfer,

		DocClass:  w.classOf,
		FinalSize: w.finalSize,

		TotalBytes:    w.totalBytes,
		DistinctBytes: w.distinctBytes,
		Threshold:     w.threshold,
	}
	c.SetKeys(w.Keys())
	return c
}

// WriteColumnar writes the workload as a WCT3 file at path.
func (w *Workload) WriteColumnar(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: write columnar: %w", err)
	}
	if err := trace.EncodeColumnar(f, w.Columnar()); err != nil {
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

// FromColumnar wraps a decoded columnar image as a Workload. The columns
// are adopted, not copied — the workload is only valid while the image's
// backing bytes (typically an mm.Mapping) stay alive.
func FromColumnar(c *trace.Columnar) *Workload {
	return &Workload{
		docID:    c.DocID,
		class:    c.Class,
		modified: c.Modified,
		docSize:  c.DocSize,
		transfer: c.Transfer,
		millis:   c.Millis,

		docs:      trace.NewInternerFromKeys(c.Keys()),
		classOf:   c.DocClass,
		finalSize: c.FinalSize,

		totalBytes:    c.TotalBytes,
		distinctBytes: c.DistinctBytes,
		threshold:     c.Threshold,
	}
}

// OpenColumnarWorkload maps (or reads, where mapping is unavailable) a
// WCT3 file into a ready-to-replay Workload. The returned mapping backs
// every column and URL string of the workload; close it only after the
// workload and all results derived from its strings are done. A file that
// is not WCT3 reports trace.ErrNotColumnar.
func OpenColumnarWorkload(path string) (*Workload, *mm.Mapping, error) {
	c, m, err := trace.OpenColumnar(path)
	if err != nil {
		return nil, nil, err
	}
	return FromColumnar(c), m, nil
}
