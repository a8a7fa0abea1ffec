package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"webcachesim/internal/doctype"
)

// internedRoundTrip encodes src with the interned writer and decodes it
// back.
func internedRoundTrip(t *testing.T, src []*Request) []*Request {
	t.Helper()
	var buf bytes.Buffer
	w := NewInternedWriter(&buf)
	for _, r := range src {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewInternedReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(src) {
		t.Fatalf("decoded %d records, want %d", len(got), len(src))
	}
	return got
}

func TestInternedRoundTrip(t *testing.T) {
	src := []*Request{
		{UnixMillis: 1000, URL: "http://e.com/a.gif", Status: 200, TransferSize: 100,
			DocSize: 100, ContentType: "image/gif", Class: doctype.Image, Client: "c1", Method: "GET"},
		{UnixMillis: 1005, URL: "http://e.com/b.html", Status: 200, TransferSize: 300,
			DocSize: 320, ContentType: "text/html", Class: doctype.HTML, Client: "c2", Method: "GET"},
		// Revisits: doc, client, and method refs all hit their tables.
		{UnixMillis: 1005, URL: "http://e.com/a.gif", Status: 304, TransferSize: 0,
			DocSize: 100, ContentType: "image/gif", Class: doctype.Image, Client: "c1", Method: "GET"},
		{UnixMillis: 2000, URL: "http://e.com/b.html", Status: 200, TransferSize: 320,
			DocSize: 320, ContentType: "text/html", Class: doctype.HTML, Client: "c1", Method: "HEAD"},
	}
	got := internedRoundTrip(t, src)
	for i := range src {
		if !reflect.DeepEqual(*got[i], *src[i]) {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, *got[i], *src[i])
		}
	}
}

// TestInternedRoundTripProperty: request streams whose per-document
// attributes are consistent (the format's contract: class and content type
// are document attributes, recorded at first sight) survive the codec
// bit-exactly.
func TestInternedRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		type docAttrs struct {
			url         string
			contentType string
			class       doctype.Class
		}
		numDocs := 1 + rng.Intn(10)
		docs := make([]docAttrs, numDocs)
		for i := range docs {
			docs[i] = docAttrs{
				url:         "http://e.com/d" + strings.Repeat("x", rng.Intn(5)) + string(rune('a'+i)),
				contentType: []string{"", "text/html", "image/gif", "video/mpeg"}[rng.Intn(4)],
				// A recorded class wins over derivation, so any non-Unknown
				// class round-trips exactly.
				class: doctype.Class(1 + rng.Intn(int(doctype.NumClasses)-1)),
			}
		}
		clients := []string{"", "10.0.0.1", "10.0.0.2"}
		methods := []string{"GET", "HEAD", "POST"}
		n := 1 + rng.Intn(40)
		src := make([]*Request, n)
		var clock int64
		for i := range src {
			clock += rng.Int63n(5_000)
			d := docs[rng.Intn(numDocs)]
			src[i] = &Request{
				UnixMillis:   clock,
				URL:          d.url,
				Status:       100 + rng.Intn(500),
				TransferSize: rng.Int63n(1 << 40),
				DocSize:      rng.Int63n(1 << 40),
				ContentType:  d.contentType,
				Class:        d.class,
				Client:       clients[rng.Intn(len(clients))],
				Method:       methods[rng.Intn(len(methods))],
			}
		}
		got := internedRoundTrip(t, src)
		for i := range src {
			if !reflect.DeepEqual(*got[i], *src[i]) {
				t.Fatalf("trial %d record %d:\n got %+v\nwant %+v", trial, i, *got[i], *src[i])
			}
		}
	}
}

// TestInternedClassResolvedEagerly pins the tentpole property at the format
// layer: a request with no recorded class is classified at *write* time, so
// the decoded stream never needs lazy classification.
func TestInternedClassResolvedEagerly(t *testing.T) {
	src := []*Request{
		{UnixMillis: 1, URL: "http://e.com/pic.gif", Status: 200, TransferSize: 5},
		{UnixMillis: 2, URL: "http://e.com/pic.gif", Status: 200, TransferSize: 5},
	}
	got := internedRoundTrip(t, src)
	for i, r := range got {
		if r.Class != doctype.Image {
			t.Errorf("record %d Class = %v, want Image resolved at write time", i, r.Class)
		}
	}
	// The writer must not have mutated the source requests.
	if src[0].Class != doctype.Unknown {
		t.Errorf("writer mutated source request Class to %v", src[0].Class)
	}
}

func TestInternedBadMagic(t *testing.T) {
	r := NewInternedReader(strings.NewReader("WCT1nope"))
	if _, err := r.Next(); err != ErrBadInternedMagic {
		t.Errorf("err = %v, want ErrBadInternedMagic", err)
	}
}

// TestInternedTruncatedStream: cutting the stream at every byte boundary
// must yield clean EOF (between records) or an error — never a panic and
// never fabricated records.
func TestInternedTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewInternedWriter(&buf)
	for _, r := range sampleRequests() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewInternedReader(bytes.NewReader(full[:cut]))
		n := 0
		for {
			_, err := r.Next()
			if err != nil {
				break
			}
			if n++; n > len(full) {
				t.Fatalf("cut %d: reader did not terminate", cut)
			}
		}
		if n >= 3 {
			t.Errorf("cut %d: decoded %d full records from a truncated stream", cut, n)
		}
	}
}

// TestInternedCorruptRefRejected: a table reference past the current table
// length is a corruption error, not an index panic.
func TestInternedCorruptRefRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(internedMagic[:])
	b := binary.AppendUvarint(nil, 0) // time delta
	b = binary.AppendUvarint(b, 7)    // docRef 7 with an empty table
	buf.Write(b)
	r := NewInternedReader(&buf)
	_, err := r.Next()
	if err == nil || !strings.Contains(err.Error(), "reference") {
		t.Errorf("err = %v, want corrupt-reference error", err)
	}
}

// TestInternedReaderNeverPanicsOnGarbage mirrors the robustness property the
// other codecs pin.
func TestInternedReaderNeverPanicsOnGarbage(t *testing.T) {
	f := func(input []byte) bool {
		r := NewInternedReader(bytes.NewReader(append(internedMagic[:], input...)))
		for i := 0; i < 1000; i++ {
			if _, err := r.Next(); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInternedFileRoundTripAndSniffing(t *testing.T) {
	dir := t.TempDir()
	for _, tt := range []struct {
		name   string
		file   string
		format Format
	}{
		{"explicit format", "trace.bin", FormatInterned},
		{"by wci extension", "trace.wci", FormatAuto},
		{"gzip", "trace.wci.gz", FormatAuto},
	} {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(dir, tt.file)
			writeTraceFile(t, path, tt.format)
			// Magic sniffing must find the interned reader on read-back.
			reqs := readTraceFile(t, path, FormatAuto)
			if len(reqs) != 3 {
				t.Fatalf("read %d records, want 3", len(reqs))
			}
			if reqs[0].URL != "http://e.com/a.gif" {
				t.Errorf("first URL = %q", reqs[0].URL)
			}
			if reqs[2].DocSize != 4_000_000 {
				t.Errorf("DocSize = %d, want 4000000", reqs[2].DocSize)
			}
		})
	}
}
