package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"webcachesim/internal/doctype"
)

// sampleColumnar builds a small, fully populated workload image.
func sampleColumnar() *Columnar {
	c := &Columnar{
		Millis:        []int64{10, 20, 30, 40, 50},
		DocID:         []int32{0, 1, 0, 2, 1},
		Class:         []doctype.Class{0, 1, 0, 2, 1},
		Modified:      []bool{false, false, true, false, true},
		DocSize:       []int64{100, 2000, 120, 9000, 2100},
		Transfer:      []int64{100, 2000, 120, 9000, 2100},
		DocClass:      []doctype.Class{0, 1, 2},
		FinalSize:     []int64{120, 2100, 9000},
		TotalBytes:    13320,
		DistinctBytes: 11220,
		Threshold:     0.05,
	}
	c.SetKeys([]string{"http://a/x.gif", "http://a/y.html", "http://b/z.mp3"})
	return c
}

func encodeColumnar(t *testing.T, c *Columnar) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeColumnar(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestColumnarRoundTrip(t *testing.T) {
	c := sampleColumnar()
	got, err := DecodeColumnar(encodeColumnar(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Millis, c.Millis) || !reflect.DeepEqual(got.DocID, c.DocID) ||
		!reflect.DeepEqual(got.Class, c.Class) || !reflect.DeepEqual(got.Modified, c.Modified) ||
		!reflect.DeepEqual(got.DocSize, c.DocSize) || !reflect.DeepEqual(got.Transfer, c.Transfer) ||
		!reflect.DeepEqual(got.DocClass, c.DocClass) || !reflect.DeepEqual(got.FinalSize, c.FinalSize) {
		t.Errorf("columns do not round-trip:\n got %+v\nwant %+v", got, c)
	}
	if got.TotalBytes != c.TotalBytes || got.DistinctBytes != c.DistinctBytes ||
		got.Threshold != c.Threshold {
		t.Errorf("header stats do not round-trip: %+v", got)
	}
	if !reflect.DeepEqual(got.Keys(), c.Keys()) {
		t.Errorf("Keys() = %v, want %v", got.Keys(), c.Keys())
	}
	if got.NumRequests() != 5 || got.NumDocs() != 3 {
		t.Errorf("counts = %d/%d, want 5/3", got.NumRequests(), got.NumDocs())
	}
}

// sampleColumnarSHA256 is the digest of EncodeColumnar(sampleColumnar()):
// the on-disk bytes are a contract with every .wci3 already written, so a
// codec change that still round-trips but moves a byte fails here.
const sampleColumnarSHA256 = "4a82c6e85d1ebd9da5eae543fef440deec94ac48c5d2d03bd41ce881f6d227b2"

// TestColumnarGoldenBytes pins the image both encode paths write: the
// memory image of a little-endian host and the element-by-element one.
func TestColumnarGoldenBytes(t *testing.T) {
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	for _, le := range []bool{true, false} {
		hostLittleEndian = le
		if got := fmt.Sprintf("%x", sha256.Sum256(encodeColumnar(t, sampleColumnar()))); got != sampleColumnarSHA256 {
			t.Errorf("little-endian host %v: image SHA-256 = %s, want %s", le, got, sampleColumnarSHA256)
		}
	}
}

// TestColumnarDecodeCopies decodes the image where a zero-copy view is
// ruled out — from a base that is not 8-byte aligned, and as a big-endian
// host would — and requires the same columns as the aligned view.
func TestColumnarDecodeCopies(t *testing.T) {
	img := encodeColumnar(t, sampleColumnar())
	want, err := DecodeColumnar(img)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1+len(img))
	copy(buf[1:], img)
	got, err := DecodeColumnar(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("misaligned decode diverges:\n got %+v\nwant %+v", got, want)
	}
	if uintptr(unsafe.Pointer(&got.Millis[0]))%8 != 0 {
		t.Error("misaligned decode aliased the buffer instead of copying")
	}

	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	hostLittleEndian = false
	if got, err = DecodeColumnar(img); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("byte-order-independent decode diverges:\n got %+v\nwant %+v", got, want)
	}
}

func TestColumnarRoundTripEmpty(t *testing.T) {
	c := &Columnar{Threshold: 0.05}
	c.SetKeys(nil)
	got, err := DecodeColumnar(encodeColumnar(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRequests() != 0 || got.NumDocs() != 0 {
		t.Errorf("counts = %d/%d, want 0/0", got.NumRequests(), got.NumDocs())
	}
}

// TestColumnarLegacyHeaderFields pins both directions of compatibility
// with images and binaries from when offsets 40 and 48 gated a one-pass
// LRU scan: an old image decodes to the same view whatever it stored
// there, and a new image stores the values that make an old binary
// decline the scan.
func TestColumnarLegacyHeaderFields(t *testing.T) {
	le := binary.LittleEndian
	fresh := encodeColumnar(t, sampleColumnar())
	if got40, got48 := le.Uint64(fresh[40:]), le.Uint64(fresh[48:]); got40 != 0 || got48 != 3 {
		t.Errorf("encoder wrote %d at offset 40 and %#x at offset 48, want 0 and 0x3", got40, got48)
	}
	want, err := DecodeColumnar(fresh)
	if err != nil {
		t.Fatal(err)
	}
	for flags := uint64(0); flags < 4; flags++ {
		old := bytes.Clone(fresh)
		le.PutUint64(old[40:], 9000) // maxDocSize, as the old encoder wrote it
		le.PutUint64(old[48:], flags)
		got, err := DecodeColumnar(old)
		if err != nil {
			t.Fatalf("flags %#x: %v", flags, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("flags %#x: legacy header changed the decoded image", flags)
		}
	}
}

func TestEncodeColumnarRejectsInconsistentColumns(t *testing.T) {
	c := sampleColumnar()
	c.Millis = c.Millis[:3] // shorter than DocID
	if err := EncodeColumnar(&bytes.Buffer{}, c); err == nil {
		t.Fatal("expected error for inconsistent column lengths")
	}
}

// TestDecodeColumnarCorruption attacks the decoder with targeted header
// and column mutations; every one must be rejected, and none may panic.
func TestDecodeColumnarCorruption(t *testing.T) {
	base := encodeColumnar(t, sampleColumnar())
	le := binary.LittleEndian
	sectionOff := func(b []byte, i int) uint64 { return le.Uint64(b[64+i*16:]) }

	tests := []struct {
		name   string
		mutate func(b []byte) []byte
		want   string // substring of the error; empty means any error
	}{
		{"bad magic", func(b []byte) []byte {
			b[0] = 'X'
			return b
		}, "not a WCT3"},
		{"truncated header", func(b []byte) []byte {
			return b[:100]
		}, "truncated header"},
		{"truncated body", func(b []byte) []byte {
			return b[:len(b)-16]
		}, "outside"},
		{"future version", func(b []byte) []byte {
			le.PutUint32(b[4:], 2)
			return b
		}, "version 2 not supported"},
		{"inflated request count", func(b []byte) []byte {
			le.PutUint64(b[8:], 1<<60)
			return b
		}, "exceed"},
		{"unknown flags", func(b []byte) []byte {
			le.PutUint64(b[48:], 1<<7)
			return b
		}, "unknown flags"},
		{"NaN threshold", func(b []byte) []byte {
			le.PutUint64(b[56:], math.Float64bits(math.NaN()))
			return b
		}, "threshold"},
		{"wrong section length", func(b []byte) []byte {
			le.PutUint64(b[64+8:], le.Uint64(b[64+8:])+8)
			return b
		}, "length"},
		{"misaligned section offset", func(b []byte) []byte {
			le.PutUint64(b[64:], sectionOff(b, 0)+4)
			return b
		}, "outside"},
		{"section offset inside header", func(b []byte) []byte {
			le.PutUint64(b[64:], 8)
			return b
		}, "outside"},
		{"section past end of file", func(b []byte) []byte {
			le.PutUint64(b[64:], uint64(len(b)+8)&^7)
			return b
		}, "outside"},
		{"modified byte out of range", func(b []byte) []byte {
			b[sectionOff(b, 3)] = 2
			return b
		}, "modified byte"},
		{"request class out of range", func(b []byte) []byte {
			b[sectionOff(b, 2)] = byte(doctype.NumClasses + 1)
			return b
		}, "class byte"},
		{"document class out of range", func(b []byte) []byte {
			b[sectionOff(b, 6)] = 0xff
			return b
		}, "class byte"},
		{"document ID out of range", func(b []byte) []byte {
			le.PutUint32(b[sectionOff(b, 1):], 99)
			return b
		}, "document ID"},
		{"negative document ID", func(b []byte) []byte {
			le.PutUint32(b[sectionOff(b, 1):], 1<<31)
			return b
		}, "document ID"},
		{"URL offsets out of order", func(b []byte) []byte {
			le.PutUint64(b[sectionOff(b, 8)+8:], 1<<40)
			return b
		}, "URL offset"},
		{"URL offsets do not cover blob", func(b []byte) []byte {
			off := sectionOff(b, 8)
			// last offset (numDocs+1 entries, entry index 3)
			le.PutUint64(b[off+3*8:], le.Uint64(b[off+3*8:])-1)
			return b
		}, "cover the blob"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := tt.mutate(bytes.Clone(base))
			c, err := DecodeColumnar(b)
			if err == nil {
				t.Fatalf("decode accepted corrupt input: %+v", c)
			}
			if tt.want != "" && !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}

	// The untouched base must still decode (the table above clones it).
	if _, err := DecodeColumnar(base); err != nil {
		t.Fatalf("pristine image no longer decodes: %v", err)
	}
}

func TestDecodeColumnarNotColumnar(t *testing.T) {
	for _, b := range [][]byte{nil, []byte("WC"), []byte("WCT2xxxx"), []byte("plain text")} {
		if _, err := DecodeColumnar(b); !errors.Is(err, ErrNotColumnar) {
			t.Errorf("%q: err = %v, want ErrNotColumnar", b, err)
		}
	}
}

func TestOpenColumnarMapsFile(t *testing.T) {
	c := sampleColumnar()
	path := filepath.Join(t.TempDir(), "w.wci3")
	if err := os.WriteFile(path, encodeColumnar(t, c), 0o644); err != nil {
		t.Fatal(err)
	}
	got, mapping, err := OpenColumnar(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mapping.Close() }()
	if !reflect.DeepEqual(got.Millis, c.Millis) || got.URL(2) != "http://b/z.mp3" {
		t.Errorf("mapped decode mismatch: %+v", got)
	}
}

func TestOpenColumnarWrongFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wci")
	if err := os.WriteFile(path, []byte("not columnar at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenColumnar(path); !errors.Is(err, ErrNotColumnar) {
		t.Fatalf("err = %v, want ErrNotColumnar", err)
	}
}
