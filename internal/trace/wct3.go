package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"

	"webcachesim/internal/doctype"
	"webcachesim/internal/trace/mm"
)

// Columnar trace format ("WCT3"). WCT2 is a record stream: compact on
// disk, but replay has to decode every uvarint and re-intern every string
// before the first simulated request. WCT3 instead stores the *preprocessed
// workload* — the same parallel columns internal/core builds from a record
// stream — as fixed-width little-endian arrays plus an offset-indexed
// string table. A WCT3 file is therefore not parsed at all: after a
// 224-byte header walk, every column is a typed view straight into the
// mapped bytes (internal/trace/mm), the kernel pages the trace in on
// demand, and a sweep's goroutines share one physical copy.
//
// Layout (all integers little-endian, every section 8-byte aligned):
//
//	offset 0    magic "WCT3"
//	offset 4    uint32  version (currently 1)
//	offset 8    uint64  numRequests
//	offset 16   uint64  numDocs
//	offset 24   int64   totalBytes      (Σ transfer sizes)
//	offset 32   int64   distinctBytes   (Σ final document sizes)
//	offset 40   int64   reserved        (written 0, ignored on read)
//	offset 48   uint64  flags           (bits 0-1 legacy: written set, ignored on read; others must be 0)
//	offset 56   float64 threshold       (modification rule baked into the columns)
//	offset 64   10 × {uint64 offset, uint64 length}  section table
//	offset 224  sections:
//
//	  0  millis     numRequests × int64
//	  1  docID      numRequests × int32
//	  2  class      numRequests × uint8  (doctype.Class)
//	  3  modified   numRequests × uint8  (0 or 1)
//	  4  docSize    numRequests × int64
//	  5  transfer   numRequests × int64
//	  6  docClass   numDocs × uint8      (doctype.Class)
//	  7  finalSize  numDocs × int64
//	  8  urlOffsets (numDocs+1) × uint64 (prefix offsets into urlBlob)
//	  9  urlBlob    bytes; URL of doc d is urlBlob[urlOffsets[d]:urlOffsets[d+1]]
//
// Because the modification decision (the paper's 5% rule) is made at
// conversion time, the threshold it was made with travels in the header;
// replaying a WCT3 file with a different threshold requires reconverting
// from the source log. Every field of the file is untrusted:
// DecodeColumnar bounds-checks offsets, lengths, alignment, class bytes,
// document IDs, and string-table monotonicity before returning a view.

// columnarMagic identifies the columnar trace format, version 3.
var columnarMagic = [4]byte{'W', 'C', 'T', '3'}

// ErrNotColumnar reports that a file or byte stream does not start with
// the WCT3 magic (callers use it to fall back to the record formats).
var ErrNotColumnar = errors.New("trace: not a WCT3 columnar trace")

const (
	columnarVersion    = 1
	columnarSections   = 10
	columnarHeaderSize = 64 + columnarSections*16

	// columnarLegacyFlags are the two bits (with the int64 at offset 40)
	// that once told core.Sweep a one-pass LRU scan would be exact on this
	// stream. Nothing reads them now; they are written set so that a
	// binary which still does declines the scan instead of trusting a
	// gate nobody computed.
	columnarLegacyFlags = 1<<0 | 1<<1
)

// hostLittleEndian gates the zero-copy views: on a big-endian host every
// multi-byte column is decoded into fresh slices instead.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Columnar is a decoded WCT3 workload image. When the source bytes are
// little-endian-compatible and aligned (always true for a fresh mapping),
// the column slices alias those bytes directly; they must be treated as
// read-only and not used after the backing mapping is closed.
type Columnar struct {
	// Per-request columns, in trace order.
	Millis   []int64
	DocID    []int32
	Class    []doctype.Class
	Modified []bool
	DocSize  []int64
	Transfer []int64

	// Per-document tables, indexed by document ID.
	DocClass  []doctype.Class
	FinalSize []int64

	// Workload statistics carried through from the conversion.
	TotalBytes    int64
	DistinctBytes int64
	// Threshold is the modification threshold the Modified column was
	// computed with (the resolved value, never 0).
	Threshold float64

	urlOffsets []uint64
	urlBlob    []byte
}

// NumRequests returns the number of requests.
func (c *Columnar) NumRequests() int { return len(c.DocID) }

// NumDocs returns the number of distinct documents.
func (c *Columnar) NumDocs() int { return len(c.FinalSize) }

// URL returns the URL of a document ID without copying: the string heads
// straight into the (possibly mapped) blob and shares its lifetime.
func (c *Columnar) URL(id int) string {
	lo, hi := c.urlOffsets[id], c.urlOffsets[id+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&c.urlBlob[lo], hi-lo)
}

// Keys materializes the document table in ID order. The string headers are
// fresh but their bytes alias the blob (see URL).
func (c *Columnar) Keys() []string {
	keys := make([]string, c.NumDocs())
	for i := range keys {
		keys[i] = c.URL(i)
	}
	return keys
}

// SetKeys fills the string table from a slice of URLs in document-ID
// order (the encoding side of Keys).
func (c *Columnar) SetKeys(keys []string) {
	var total int
	for _, k := range keys {
		total += len(k)
	}
	c.urlOffsets = make([]uint64, len(keys)+1)
	c.urlBlob = make([]byte, 0, total)
	for i, k := range keys {
		c.urlBlob = append(c.urlBlob, k...)
		c.urlOffsets[i+1] = uint64(len(c.urlBlob))
	}
}

// sectionsOf lays the ten sections out after the header and returns their
// {offset, length} table together with the total file size.
func (c *Columnar) sectionsOf() (tab [columnarSections][2]uint64, total uint64) {
	n, d := uint64(c.NumRequests()), uint64(c.NumDocs())
	lengths := [columnarSections]uint64{
		n * 8, n * 4, n, n, n * 8, n * 8,
		d, d * 8, (d + 1) * 8, uint64(len(c.urlBlob)),
	}
	off := uint64(columnarHeaderSize)
	for i, length := range lengths {
		tab[i] = [2]uint64{off, length}
		off += (length + 7) &^ 7 // keep every section 8-byte aligned
	}
	return tab, off
}

// EncodeColumnar writes c in the WCT3 layout.
func EncodeColumnar(w io.Writer, c *Columnar) error {
	n, d := c.NumRequests(), c.NumDocs()
	if len(c.Millis) != n || len(c.Class) != n || len(c.Modified) != n ||
		len(c.DocSize) != n || len(c.Transfer) != n ||
		len(c.DocClass) != d || len(c.urlOffsets) != d+1 {
		return errors.New("trace: encode columnar: inconsistent column lengths")
	}
	tab, _ := c.sectionsOf()

	hdr := make([]byte, columnarHeaderSize)
	copy(hdr, columnarMagic[:])
	le := binary.LittleEndian
	le.PutUint32(hdr[4:], columnarVersion)
	le.PutUint64(hdr[8:], uint64(n))
	le.PutUint64(hdr[16:], uint64(d))
	le.PutUint64(hdr[24:], uint64(c.TotalBytes))
	le.PutUint64(hdr[32:], uint64(c.DistinctBytes))
	le.PutUint64(hdr[48:], columnarLegacyFlags)
	le.PutUint64(hdr[56:], math.Float64bits(c.Threshold))
	for i, s := range tab {
		le.PutUint64(hdr[64+i*16:], s[0])
		le.PutUint64(hdr[64+i*16+8:], s[1])
	}

	bw := bufio.NewWriterSize(w, 256*1024)
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("trace: encode columnar header: %w", err)
	}
	cw := &columnWriter{w: bw}
	writeFixed(cw, c.Millis)
	writeFixed(cw, c.DocID)
	cw.bytes(classBytes(c.Class))
	cw.bytes(boolBytes(c.Modified))
	writeFixed(cw, c.DocSize)
	writeFixed(cw, c.Transfer)
	cw.bytes(classBytes(c.DocClass))
	writeFixed(cw, c.FinalSize)
	writeFixed(cw, c.urlOffsets)
	cw.bytes(c.urlBlob)
	if cw.err != nil {
		return fmt.Errorf("trace: encode columnar: %w", cw.err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: encode columnar: %w", err)
	}
	return nil
}

// columnWriter emits 8-byte-aligned sections, sticky-erroring like
// bufio itself so the encode body stays linear.
type columnWriter struct {
	w       *bufio.Writer
	written int
	scratch [8]byte
	err     error
}

func (cw *columnWriter) write(b []byte) {
	if cw.err != nil {
		return
	}
	_, cw.err = cw.w.Write(b)
	cw.written += len(b)
}

// bytes writes one section and pads it to the next 8-byte boundary.
func (cw *columnWriter) bytes(b []byte) {
	cw.write(b)
	var zero [8]byte
	cw.write(zero[:(8-cw.written%8)%8])
}

// fixed is the set of multi-byte column element types.
type fixed interface{ int32 | int64 | uint64 }

// writeFixed writes a multi-byte column as one section: its memory image
// on a little-endian host, element by element otherwise.
func writeFixed[T fixed](cw *columnWriter, s []T) {
	size := int(unsafe.Sizeof(T(0)))
	if hostLittleEndian {
		cw.bytes(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*size))
		return
	}
	for _, v := range s {
		// The low size bytes of the little-endian uint64 are v's own
		// little-endian encoding, sign extension included.
		binary.LittleEndian.PutUint64(cw.scratch[:], uint64(v))
		cw.write(cw.scratch[:size])
	}
	cw.bytes(nil)
}

// classBytes views a class column as raw bytes (doctype.Class is one byte
// wide; the conversion cannot change representation).
func classBytes(s []doctype.Class) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s))
}

// boolBytes views a bool column as raw bytes. Go booleans are one byte
// storing 0 or 1, which is exactly the on-disk encoding.
func boolBytes(s []bool) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s))
}

// DecodeColumnar validates data as a WCT3 image and returns a view over
// it. Every offset, length, class byte, document ID, and string-table
// offset is checked before any column is exposed; data must stay alive
// (and unmodified) for as long as the Columnar is used. A non-WCT3 prefix
// reports ErrNotColumnar.
func DecodeColumnar(data []byte) (*Columnar, error) {
	if len(data) < 4 || [4]byte(data[:4]) != columnarMagic {
		return nil, ErrNotColumnar
	}
	if len(data) < columnarHeaderSize {
		return nil, errors.New("trace: corrupt columnar trace: truncated header")
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[4:]); v != columnarVersion {
		return nil, fmt.Errorf("trace: columnar trace version %d not supported (want %d)", v, columnarVersion)
	}
	size := uint64(len(data))
	n, d := le.Uint64(data[8:]), le.Uint64(data[16:])
	// Each request occupies ≥ 30 section bytes, each document ≥ 17, so any
	// count a corrupt header inflates past the file size fails here before
	// the per-section checks (and before int overflow on 32-bit hosts).
	if n > size || d > size {
		return nil, fmt.Errorf("trace: corrupt columnar trace: %d requests / %d documents exceed %d file bytes", n, d, size)
	}
	if unknown := le.Uint64(data[48:]) &^ columnarLegacyFlags; unknown != 0 {
		return nil, fmt.Errorf("trace: columnar trace carries unknown flags %#x", unknown)
	}
	threshold := math.Float64frombits(le.Uint64(data[56:]))
	if math.IsNaN(threshold) || math.IsInf(threshold, 0) {
		return nil, errors.New("trace: corrupt columnar trace: bad modification threshold")
	}

	want := [columnarSections]uint64{
		n * 8, n * 4, n, n, n * 8, n * 8,
		d, d * 8, (d + 1) * 8, 0, // blob length is free-form, checked below
	}
	var secs [columnarSections][]byte
	for i := range secs {
		off := le.Uint64(data[64+i*16:])
		length := le.Uint64(data[64+i*16+8:])
		if i != 9 && length != want[i] {
			return nil, fmt.Errorf("trace: corrupt columnar trace: section %d length %d, want %d", i, length, want[i])
		}
		if off%8 != 0 || off < columnarHeaderSize || off > size || length > size-off {
			return nil, fmt.Errorf("trace: corrupt columnar trace: section %d spans [%d,%d) outside %d file bytes", i, off, off+length, size)
		}
		secs[i] = data[off : off+length]
	}

	c := &Columnar{
		TotalBytes:    int64(le.Uint64(data[24:])),
		DistinctBytes: int64(le.Uint64(data[32:])),
		Threshold:     threshold,
	}
	c.Millis = view[int64](secs[0])
	c.DocID = view[int32](secs[1])
	c.Class = viewClass(secs[2])
	c.DocSize = view[int64](secs[4])
	c.Transfer = view[int64](secs[5])
	c.DocClass = viewClass(secs[6])
	c.FinalSize = view[int64](secs[7])
	c.urlOffsets = view[uint64](secs[8])
	c.urlBlob = secs[9]

	for _, b := range secs[3] {
		if b > 1 {
			return nil, fmt.Errorf("trace: corrupt columnar trace: modified byte %d", b)
		}
	}
	c.Modified = viewBool(secs[3])
	// Class values index arrays of length NumClasses+1 (Other == NumClasses
	// is the last valid value), so anything beyond that would read out of
	// bounds during replay.
	for _, cl := range c.Class {
		if cl > doctype.NumClasses {
			return nil, fmt.Errorf("trace: corrupt columnar trace: class byte %d", cl)
		}
	}
	for _, cl := range c.DocClass {
		if cl > doctype.NumClasses {
			return nil, fmt.Errorf("trace: corrupt columnar trace: class byte %d", cl)
		}
	}
	for _, id := range c.DocID {
		if id < 0 || uint64(id) >= d {
			return nil, fmt.Errorf("trace: corrupt columnar trace: document ID %d outside table of %d", id, d)
		}
	}
	prev := uint64(0)
	for i, off := range c.urlOffsets {
		if off < prev || off > uint64(len(c.urlBlob)) {
			return nil, fmt.Errorf("trace: corrupt columnar trace: URL offset %d out of order at %d", off, i)
		}
		prev = off
	}
	if len(c.urlOffsets) > 0 {
		if c.urlOffsets[0] != 0 || prev != uint64(len(c.urlBlob)) {
			return nil, errors.New("trace: corrupt columnar trace: URL offsets do not cover the blob")
		}
	}
	return c, nil
}

// OpenColumnar maps (or, failing that, reads) a WCT3 file and decodes it.
// The returned mapping backs every column and string of the Columnar and
// must be closed only when they are no longer referenced. A file that does
// not start with the WCT3 magic reports ErrNotColumnar.
func OpenColumnar(path string) (*Columnar, *mm.Mapping, error) {
	m, err := mm.Open(path)
	if err != nil {
		return nil, nil, err
	}
	c, err := DecodeColumnar(m.Data())
	if err != nil {
		// Surfacing the decode error outranks an unmap failure.
		_ = m.Close()
		if errors.Is(err, ErrNotColumnar) {
			return nil, nil, fmt.Errorf("%s: %w", path, ErrNotColumnar)
		}
		return nil, nil, fmt.Errorf("trace: open columnar %s: %w", path, err)
	}
	return c, m, nil
}

// view reinterprets little-endian section bytes as a []T, copying only
// when the host byte order or the base's alignment rules the alias out.
func view[T fixed](b []byte) []T {
	size := int(unsafe.Sizeof(T(0)))
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/size)
	}
	out := make([]T, len(b)/size)
	for i := range out {
		if size == 4 {
			out[i] = T(binary.LittleEndian.Uint32(b[i*4:]))
		} else {
			out[i] = T(binary.LittleEndian.Uint64(b[i*8:]))
		}
	}
	return out
}

// viewClass and viewBool are always zero-copy: the element types are one
// byte wide, so neither byte order nor alignment can interfere (viewBool's
// callers validate the bytes are 0/1 first).
func viewClass(b []byte) []doctype.Class {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*doctype.Class)(unsafe.Pointer(&b[0])), len(b))
}

func viewBool(b []byte) []bool {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*bool)(unsafe.Pointer(&b[0])), len(b))
}
