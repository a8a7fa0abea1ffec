package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// Fuzz targets for the text and binary decoders: any input must produce
// a request or an error, never a panic, and successfully parsed requests
// must re-encode.

func FuzzParseSquidLine(f *testing.F) {
	f.Add(`982347195.744 110 10.0.0.1 TCP_HIT/200 4512 GET http://e.com/a.gif - NONE/- image/gif`)
	f.Add(`0.0 0 - TCP_MISS/000 - GET / - -/- -`)
	f.Add("")
	for _, line := range squidFieldLines {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		checkSquidFields(t, line)
		req, err := ParseSquidLine(line)
		if err != nil {
			return
		}
		if req == nil {
			t.Fatal("nil request without error")
		}
		var sb strings.Builder
		w := NewSquidWriter(&sb)
		if err := w.Write(req); err != nil {
			t.Fatalf("parsed request failed to re-encode: %v", err)
		}
	})
}

// squidFieldLines are splitting edge cases: every ASCII space, leading and
// trailing runs, fewer and more than ten fields, and the non-ASCII white
// space (U+0085, U+00A0, U+2003, U+3000) only strings.Fields knows.
var squidFieldLines = []string{
	" \t a\vb\fc\rd\ne  ",
	"1 2 3 4 5 6 7 8 9",
	"1 2 3 4 5 6 7 8 9 10",
	"1 2 3 4 5 6 7 8 9 10 ",
	"1 2 3 4 5 6 7 8 9 10 11 12",
	"1 2 3 4 5 6 7 8 9 10\u00a011",
	"1\u00852\u00a03\u20034\u30005 6 7 8 9 10 11",
	"1 2 3 4 5 6 http://e.com/\xff\xfe 8 9 10",
	"\x00 \x1f \x7f",
}

// checkSquidFields holds the in-place splitter to strings.Fields: the same
// fields up to the tenth, and the same count below ten.
func checkSquidFields(t *testing.T, line string) {
	t.Helper()
	var got [squidFields]string
	n := splitSquidFields(line, &got)
	want := strings.Fields(line)
	if len(want) > squidFields {
		want = want[:squidFields]
	}
	if n != len(want) {
		t.Fatalf("splitSquidFields(%q) found %d fields, strings.Fields %d", line, n, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitSquidFields(%q) field %d = %q, want %q", line, i, got[i], want[i])
		}
	}
}

func TestSplitSquidFieldsMatchesStringsFields(t *testing.T) {
	for _, line := range squidFieldLines {
		checkSquidFields(t, line)
	}
}

func FuzzInternedReader(f *testing.F) {
	// Seed with a valid multi-record WCT2 stream exercising both the
	// first-mention (inline string) and back-reference encodings.
	var buf bytes.Buffer
	w := NewInternedWriter(&buf)
	for _, r := range []*Request{
		{UnixMillis: 1000, URL: "http://e.com/a.gif", Status: 200, TransferSize: 512, ContentType: "image/gif", Client: "10.0.0.1"},
		{UnixMillis: 1750, URL: "http://e.com/b.html", Status: 200, TransferSize: 2048, ContentType: "text/html", Client: "10.0.0.2"},
		{UnixMillis: 2500, URL: "http://e.com/a.gif", Status: 304, TransferSize: 0, ContentType: "image/gif", Client: "10.0.0.1"},
	} {
		if err := w.Write(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// Corruption fixtures: the classes of damage the reader must survive —
	// wrong magic, truncation at every prefix length, and flipped bytes in
	// the record region (bad refs, bogus lengths, negative deltas).
	f.Add([]byte{})
	f.Add([]byte("WCT1"))
	f.Add([]byte("WCT2"))
	f.Add(valid[:len(valid)/2])
	// Untrusted-length fixtures: a first-mention record whose URL length
	// claims far more than the stream holds. The reader must fail with a
	// truncation error after a bounded allocation, not allocate the claim.
	huge := []byte("WCT2")
	huge = binary.AppendUvarint(huge, 0) // time delta
	huge = binary.AppendUvarint(huge, 0) // docRef 0: new document
	huge = binary.AppendUvarint(huge, maxFieldLen)
	f.Add(append(bytes.Clone(huge), "only-a-few-bytes"...))
	over := []byte("WCT2")
	over = binary.AppendUvarint(over, 0)
	over = binary.AppendUvarint(over, 0)
	over = binary.AppendUvarint(over, maxFieldLen+1) // rejected outright
	f.Add(over)
	for _, i := range []int{4, 5, len(valid) / 3, len(valid) - 1} {
		if i < len(valid) {
			mut := bytes.Clone(valid)
			mut[i] ^= 0xff
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewInternedReader(bytes.NewReader(data))
		for i := 0; i < 1000; i++ {
			req, err := r.Next()
			if err != nil {
				return
			}
			if req == nil {
				t.Fatal("nil request without error")
			}
			// Whatever decoded must re-encode: the writer accepts any
			// request the reader vouched for.
			var rt bytes.Buffer
			rw := NewInternedWriter(&rt)
			if err := rw.Write(req); err != nil {
				t.Fatalf("decoded request failed to re-encode: %v", err)
			}
		}
	})
}

func FuzzColumnar(f *testing.F) {
	// Seed with a valid WCT3 image plus targeted damage; the decoder
	// validates every offset and value, so arbitrary input must yield a
	// view or an error — never a panic or an out-of-bounds read.
	valid := encodeSampleColumnar(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("WCT3"))
	f.Add(valid[:len(valid)/2])
	for _, i := range []int{4, 8, 48, 56, 64, 72, len(valid) - 1} {
		if i < len(valid) {
			mut := bytes.Clone(valid)
			mut[i] ^= 0xff
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeColumnar(data)
		if err != nil {
			return
		}
		// A decoded image must survive a full walk and re-encode.
		for i := 0; i < c.NumDocs(); i++ {
			_ = c.URL(i)
		}
		var rt bytes.Buffer
		if err := EncodeColumnar(&rt, c); err != nil {
			t.Fatalf("decoded image failed to re-encode: %v", err)
		}
	})
}

// encodeSampleColumnar builds the valid WCT3 seed image for FuzzColumnar.
func encodeSampleColumnar(f *testing.F) []byte {
	f.Helper()
	c := sampleColumnar()
	var buf bytes.Buffer
	if err := EncodeColumnar(&buf, c); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
