package trace

import (
	"bufio"
	"cmp"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// Format names a trace encoding.
type Format string

// Supported trace encodings.
const (
	// FormatSquid is the Squid native access-log format.
	FormatSquid Format = "squid"
	// FormatInterned is the interned binary format (WCT2): string tables
	// carried inline, documents classified eagerly at write time.
	FormatInterned Format = "interned"
	// FormatColumnar is the columnar workload image (WCT3): not a record
	// stream but a preprocessed, mmap-able workload. It is written by
	// core.Workload.WriteColumnar (wcstat -o x.wci3) and read via
	// OpenColumnar; the record-stream OpenFile/CreateFile paths reject it
	// with a pointer there.
	FormatColumnar Format = "wct3"
	// FormatAuto selects the format by sniffing the stream (reading) or by
	// file extension (writing, defaulting to squid).
	FormatAuto Format = "auto"
)

// FileReader is a Reader bound to an open file; Close releases it.
type FileReader struct {
	Reader
	closers []io.Closer
	stop    func() // ends the goroutines decoding ahead of Next, if any
}

// Close stops any decoding ahead and closes the underlying file and any
// decompressor.
func (fr *FileReader) Close() error {
	if fr.stop != nil {
		fr.stop()
		fr.stop = nil
	}
	return closeAll(fr.closers, "reader")
}

// closeAll closes the last opened first and reports the first failure.
func closeAll(closers []io.Closer, what string) error {
	var first error
	for i := len(closers) - 1; i >= 0; i-- {
		if err := closers[i].Close(); err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return fmt.Errorf("trace: close %s: %w", what, first)
	}
	return nil
}

// OpenFile opens a trace file for reading, transparently decompressing
// gzip and, for FormatAuto, sniffing the binary magic to pick the decoder.
// A Squid log is decoded ahead of Next on other goroutines, until Close.
func OpenFile(path string, format Format) (*FileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open %s: %w", path, err)
	}
	fr := &FileReader{closers: []io.Closer{f}}

	br := bufio.NewReaderSize(f, 256*1024)
	if head, err := br.Peek(2); err == nil && head[0] == 0x1f && head[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			_ = fr.Close() // nothing was read; the gzip error is the story
			return nil, fmt.Errorf("trace: open gzip %s: %w", path, err)
		}
		fr.closers = append(fr.closers, gz)
		br = bufio.NewReaderSize(gz, 256*1024)
	}

	if format == FormatAuto {
		if format, err = sniffFormat(br); err != nil {
			_ = fr.Close() // same: only the format error matters
			return nil, fmt.Errorf("trace: open %s: %w", path, err)
		}
	}
	switch format {
	case FormatInterned:
		fr.Reader = NewInternedReader(br)
	case FormatSquid:
		sr := NewSquidReader(br)
		sr.runAhead(2 * runtime.GOMAXPROCS(0))
		fr.Reader, fr.stop = sr, sr.stopAhead
	case FormatColumnar:
		// Nothing was read yet; the format error below is the story.
		_ = fr.Close()
		return nil, fmt.Errorf("trace: %s is a WCT3 columnar workload, not a record stream; open it with OpenColumnar (wcsim and wcstat do this automatically)", path)
	default:
		// Same: abandoning an unread reader, only the format error matters.
		_ = fr.Close()
		return nil, fmt.Errorf("trace: unsupported read format %q", format)
	}
	return fr, nil
}

// removedMagic is the header of the WCT1 record format, which no code
// reads or writes; it is recognized so that such a file is refused by name
// and not parsed as a text log.
var (
	removedMagic = [4]byte{'W', 'C', 'T', '1'}
	errRemoved   = errors.New("WCT1 format removed; regenerate the trace as interned (WCT2)")
)

// sniffFormat inspects the head of a stream: a binary magic selects its
// format; anything else is treated as a Squid native log.
func sniffFormat(br *bufio.Reader) (Format, error) {
	if head, err := br.Peek(4); err == nil && len(head) == 4 {
		switch [4]byte(head) {
		case internedMagic:
			return FormatInterned, nil
		case columnarMagic:
			return FormatColumnar, nil
		case removedMagic:
			return "", errRemoved
		}
	}
	return FormatSquid, nil
}

// FileWriter is a Writer bound to an open file; Close flushes and releases
// it.
type FileWriter struct {
	Writer
	flush   func() error
	closers []io.Closer
}

// Close flushes buffered records and closes the compressor and the file,
// even when the flush fails; it returns the first error.
func (fw *FileWriter) Close() error {
	var err error
	if fw.flush != nil {
		err = fw.flush()
	}
	return cmp.Or(err, closeAll(fw.closers, "writer"))
}

// CreateFile creates a trace file for writing. A ".gz" path suffix enables
// gzip compression, on every core (gzipWriter); FormatAuto picks interned
// for ".wci"/".wct"/".bin" and squid otherwise.
func CreateFile(path string, format Format) (*FileWriter, error) {
	if format == FormatAuto {
		base := strings.TrimSuffix(path, ".gz")
		switch {
		case strings.HasSuffix(base, ".wci3"):
			format = FormatColumnar
		case strings.HasSuffix(base, ".wci") || strings.HasSuffix(base, ".wct") || strings.HasSuffix(base, ".bin"):
			format = FormatInterned
		default:
			format = FormatSquid
		}
	}
	if format == FormatColumnar {
		// Checked before the file is created so a bad invocation does not
		// leave an empty .wci3 behind.
		return nil, fmt.Errorf("trace: WCT3 is a preprocessed workload image, not a record stream; convert with wcstat -o x.wci3 (core.Workload.WriteColumnar)")
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: create %s: %w", path, err)
	}
	fw := &FileWriter{closers: []io.Closer{f}}
	var dst io.Writer = f
	if strings.HasSuffix(path, ".gz") {
		gz := newGzipWriter(f, runtime.GOMAXPROCS(0), gzipBlockSize)
		fw.closers = append(fw.closers, gz)
		dst = gz
	}
	switch format {
	case FormatInterned:
		w := NewInternedWriter(dst)
		fw.Writer, fw.flush = w, w.Flush
	case FormatSquid:
		w := NewSquidWriter(dst)
		fw.Writer, fw.flush = w, w.Flush
	default:
		// Nothing was written; surfacing the format error outranks any
		// close failure on the empty file.
		_ = fw.Close()
		return nil, fmt.Errorf("trace: unsupported write format %q", format)
	}
	return fw, nil
}
