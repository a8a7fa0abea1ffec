package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"webcachesim/internal/doctype"
)

// Interned binary trace format ("WCT2"). It preserves every Request field
// — in particular DocSize and Class, which the textual Squid format cannot
// carry — and interns each string domain (URL, client, method) into a
// dense table carried inline: the first occurrence of a document spells out
// its URL, class, and content type; every revisit is a single uvarint table
// reference. The decoded stream therefore arrives pre-interned — the reader
// exposes the document table it rebuilt — and the document class is
// resolved eagerly at *write* time, matching the immutable columnar
// workload model (no lazy classification on replay).
//
// Layout: a 4-byte magic, then one record per request:
//
//	uvarint  time delta in milliseconds from the previous record
//	uvarint  docRef; docRef == len(table) introduces a new document:
//	         uvarint URL length + bytes, byte class,
//	         uvarint content-type length + bytes
//	uvarint  status
//	uvarint  transfer size
//	uvarint  document size
//	uvarint  clientRef; ref == len(table) introduces a new client:
//	         uvarint length + bytes
//	uvarint  methodRef; ref == len(table) introduces a new method:
//	         uvarint length + bytes
//
// The first record's delta is taken from time zero, so it carries the
// absolute start time of the trace. Class and content type are document
// attributes (recorded at first sight), not per-request attributes, which
// is exactly the resolution the columnar workload performs anyway.

// internedMagic identifies the interned trace format, version 2.
var internedMagic = [4]byte{'W', 'C', 'T', '2'}

// ErrBadInternedMagic reports that a stream does not start with the
// interned-format magic.
var ErrBadInternedMagic = errors.New("trace: not a WCT2 interned trace")

// maxInternedTable bounds the string tables so a corrupt stream cannot
// force unbounded growth before a reference check fires.
const maxInternedTable = 1 << 28

// maxFieldLen bounds string fields to keep a corrupt stream from causing
// huge allocations.
const maxFieldLen = 1 << 20

// InternedWriter encodes requests into the interned binary format.
type InternedWriter struct {
	w        *bufio.Writer
	buf      []byte
	docs     *Interner
	clients  *Interner
	methods  *Interner
	lastTime int64
	started  bool
}

var _ Writer = (*InternedWriter)(nil)

// NewInternedWriter returns a writer emitting the interned format to w.
// The magic header is written lazily on the first record. Call Flush when
// done.
func NewInternedWriter(w io.Writer) *InternedWriter {
	return &InternedWriter{
		w:       bufio.NewWriterSize(w, 256*1024),
		docs:    NewInterner(),
		clients: NewInterner(),
		methods: NewInterner(),
	}
}

// Write encodes one request, classifying its document eagerly on first
// sight.
func (iw *InternedWriter) Write(r *Request) error {
	if !iw.started {
		if _, err := iw.w.Write(internedMagic[:]); err != nil {
			return fmt.Errorf("trace: write interned header: %w", err)
		}
		iw.started = true
	}
	delta := r.UnixMillis - iw.lastTime
	if delta < 0 {
		delta = 0 // The format requires non-decreasing timestamps.
	}
	iw.lastTime += delta

	b := iw.buf[:0]
	b = binary.AppendUvarint(b, uint64(delta))

	known := iw.docs.Len()
	docID := iw.docs.Intern(r.URL)
	b = binary.AppendUvarint(b, uint64(docID))
	if int(docID) == known { // first sight: spell the document out
		b = appendString(b, r.URL)
		b = append(b, byte(r.Classify()))
		b = appendString(b, r.ContentType)
	}
	b = binary.AppendUvarint(b, uint64(r.Status))
	b = binary.AppendUvarint(b, uint64(max(0, r.TransferSize)))
	b = binary.AppendUvarint(b, uint64(max(0, r.DocSize)))
	b = appendInternedRef(b, iw.clients, r.Client)
	b = appendInternedRef(b, iw.methods, r.Method)
	iw.buf = b
	if _, err := iw.w.Write(b); err != nil {
		return fmt.Errorf("trace: write interned record: %w", err)
	}
	return nil
}

// appendInternedRef appends a table reference for s, spelling s out when
// the reference is fresh.
func appendInternedRef(b []byte, table *Interner, s string) []byte {
	known := table.Len()
	ref := table.Intern(s)
	b = binary.AppendUvarint(b, uint64(ref))
	if int(ref) == known {
		b = appendString(b, s)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Flush writes buffered output to the underlying writer.
func (iw *InternedWriter) Flush() error {
	if err := iw.w.Flush(); err != nil {
		return fmt.Errorf("trace: flush interned trace: %w", err)
	}
	return nil
}

// internedDoc is one rebuilt document-table entry on the read side.
type internedDoc struct {
	url         string
	contentType string
	class       doctype.Class
}

// InternedReader decodes the interned binary format, rebuilding the string
// tables as it goes.
type InternedReader struct {
	r        *bufio.Reader
	docs     []internedDoc
	clients  []string
	methods  []string
	lastTime int64
	started  bool
	strbuf   []byte
}

var _ Reader = (*InternedReader)(nil)

// NewInternedReader returns a reader decoding the interned format from r.
func NewInternedReader(r io.Reader) *InternedReader {
	return &InternedReader{r: bufio.NewReaderSize(r, 256*1024)}
}

// Next decodes the next request. It returns io.EOF at a clean end of
// stream and io.ErrUnexpectedEOF for a truncated record.
func (ir *InternedReader) Next() (*Request, error) {
	if !ir.started {
		var magic [4]byte
		if _, err := io.ReadFull(ir.r, magic[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("trace: read interned header: %w", err)
		}
		if magic != internedMagic {
			return nil, ErrBadInternedMagic
		}
		ir.started = true
	}
	delta, err := binary.ReadUvarint(ir.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF // clean end between records
		}
		return nil, fmt.Errorf("trace: read interned record: %w", err)
	}
	ir.lastTime += int64(delta)
	req := &Request{UnixMillis: ir.lastTime}

	docRef, err := ir.readRef(len(ir.docs))
	if err != nil {
		return nil, err
	}
	if docRef == len(ir.docs) { // new document definition
		var d internedDoc
		if d.url, err = ir.readString(); err != nil {
			return nil, err
		}
		classByte, err := ir.r.ReadByte()
		if err != nil {
			return nil, truncated(err)
		}
		d.class = doctype.Class(classByte)
		if d.contentType, err = ir.readString(); err != nil {
			return nil, err
		}
		ir.docs = append(ir.docs, d)
	}
	doc := &ir.docs[docRef]
	req.URL, req.Class, req.ContentType = doc.url, doc.class, doc.contentType

	status, err := ir.readUvarint()
	if err != nil {
		return nil, err
	}
	req.Status = int(status)
	ts, err := ir.readUvarint()
	if err != nil {
		return nil, err
	}
	req.TransferSize = int64(ts)
	ds, err := ir.readUvarint()
	if err != nil {
		return nil, err
	}
	req.DocSize = int64(ds)

	clientRef, err := ir.readRef(len(ir.clients))
	if err != nil {
		return nil, err
	}
	if clientRef == len(ir.clients) {
		s, err := ir.readString()
		if err != nil {
			return nil, err
		}
		ir.clients = append(ir.clients, s)
	}
	req.Client = ir.clients[clientRef]

	methodRef, err := ir.readRef(len(ir.methods))
	if err != nil {
		return nil, err
	}
	if methodRef == len(ir.methods) {
		s, err := ir.readString()
		if err != nil {
			return nil, err
		}
		ir.methods = append(ir.methods, s)
	}
	req.Method = ir.methods[methodRef]
	return req, nil
}

// readRef reads a table reference, accepting values up to and including
// tableLen (== tableLen introduces a new entry).
func (ir *InternedReader) readRef(tableLen int) (int, error) {
	v, err := binary.ReadUvarint(ir.r)
	if err != nil {
		return 0, truncated(err)
	}
	if v > uint64(tableLen) || v > maxInternedTable {
		return 0, fmt.Errorf("trace: corrupt interned record: reference %d exceeds table size %d", v, tableLen)
	}
	return int(v), nil
}

func (ir *InternedReader) readUvarint() (uint64, error) {
	v, err := binary.ReadUvarint(ir.r)
	if err != nil {
		return 0, truncated(err)
	}
	return v, nil
}

// readStringChunk caps how much readString allocates ahead of the bytes
// actually present: a corrupt length claim costs at most one chunk before
// the missing input surfaces as a truncation error.
const readStringChunk = 64 * 1024

func (ir *InternedReader) readString() (string, error) {
	n, err := binary.ReadUvarint(ir.r)
	if err != nil {
		return "", truncated(err)
	}
	if n > maxFieldLen {
		return "", fmt.Errorf("trace: corrupt record: field length %d exceeds %d", n, maxFieldLen)
	}
	if n == 0 {
		return "", nil
	}
	// Grow the buffer chunk by chunk, proving each chunk's bytes exist
	// before committing to the next allocation. A header claiming a
	// megabyte backed by an empty stream therefore fails after one 64 KiB
	// chunk instead of allocating the full claim up front.
	buf := ir.strbuf[:0]
	for remaining := int(n); remaining > 0; {
		step := remaining
		if step > readStringChunk {
			step = readStringChunk
		}
		start := len(buf)
		if need := start + step; cap(buf) < need {
			if grow := 2 * cap(buf); grow > need {
				need = grow
			}
			grown := make([]byte, start+step, need)
			copy(grown, buf)
			buf = grown
		} else {
			buf = buf[:start+step]
		}
		if _, err := io.ReadFull(ir.r, buf[start:]); err != nil {
			return "", truncated(err)
		}
		remaining -= step
	}
	ir.strbuf = buf
	return string(buf), nil
}

// truncated maps mid-record EOFs to io.ErrUnexpectedEOF so callers can
// distinguish a clean end of stream from a cut-off record.
func truncated(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
