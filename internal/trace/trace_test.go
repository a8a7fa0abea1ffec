package trace

import (
	"errors"
	"io"
	"strings"
	"testing"

	"webcachesim/internal/doctype"
)

func TestCacheableStatus(t *testing.T) {
	for _, s := range []int{200, 203, 206, 300, 301, 302, 304} {
		if !CacheableStatus(s) {
			t.Errorf("status %d should be cacheable", s)
		}
	}
	for _, s := range []int{0, 100, 201, 204, 303, 307, 400, 403, 404, 500, 503} {
		if CacheableStatus(s) {
			t.Errorf("status %d should not be cacheable", s)
		}
	}
}

func TestUncacheableURL(t *testing.T) {
	tests := []struct {
		url  string
		want bool
	}{
		{"http://e.com/a.gif", false},
		{"http://e.com/a.gif?x=1", true},
		{"http://e.com/cgi-bin/prog", true},
		{"http://e.com/CGI-BIN/prog", true},
		{"http://e.com/magic/page.html", false},
		{"http://e.com/a/cGi", true},
		{"http://e.com/CgI/x", true},
		{"cgi", true},
		{"cg", false},
		{"http://e.com/c/g/i", false},
		{"http://e.com/cg", false},
		{"http://e.com/a.gif?", true},
		{"?", true},
		{"", false},
		// Non-ASCII URLs go through Unicode lower-casing, whose answer a
		// byte scan cannot give: İ (U+0130) lower-cases to "i" plus a
		// combining dot, K (U+212A, the Kelvin sign) to "k".
		{"http://e.com/CGİ", true},
		{"http://e.com/cgİ/x", true},
		{"http://e.com/é/cgi-bin", true},
		{"http://e.com/é/CGI?x", true},
		{"http://e.com/é/page.html", false},
		{"http://e.com/é?x", true},
		{"http://e.com/cg\xffi", false},
	}
	for _, tt := range tests {
		if got := UncacheableURL(tt.url); got != tt.want {
			t.Errorf("UncacheableURL(%q) = %v, want %v", tt.url, got, tt.want)
		}
		old := strings.Contains(tt.url, "?") || strings.Contains(strings.ToLower(tt.url), "cgi")
		if old != tt.want {
			t.Errorf("%q: the table says %v, lower-casing says %v", tt.url, tt.want, old)
		}
	}
	for _, url := range []string{"http://e.com/images/a.gif", "http://e.com/CGI-bin/x", "http://e.com/a?b"} {
		if allocs := testing.AllocsPerRun(100, func() { UncacheableURL(url) }); allocs != 0 {
			t.Errorf("UncacheableURL(%q) allocates %v times, want 0", url, allocs)
		}
	}
}

func TestCacheable(t *testing.T) {
	ok := &Request{URL: "http://e.com/a.gif", Status: 200, Method: "GET"}
	if !Cacheable(ok) {
		t.Error("plain GET 200 should be cacheable")
	}
	post := &Request{URL: "http://e.com/a.gif", Status: 200, Method: "POST"}
	if Cacheable(post) {
		t.Error("POST should not be cacheable")
	}
	noMethod := &Request{URL: "http://e.com/a.gif", Status: 200}
	if !Cacheable(noMethod) {
		t.Error("unrecorded method should pass")
	}
}

func TestClassifyIsPure(t *testing.T) {
	r := &Request{URL: "http://e.com/a.gif"}
	if got := r.Classify(); got != doctype.Image {
		t.Fatalf("Classify = %v, want Image", got)
	}
	// Classify must not write the derived class back: requests are shared
	// across goroutines, and the old lazy-caching write was a data race.
	if r.Class != doctype.Unknown {
		t.Errorf("Classify mutated the request: Class = %v", r.Class)
	}
	// A class the producer recorded wins over derivation.
	r.Class = doctype.HTML
	if got := r.Classify(); got != doctype.HTML {
		t.Errorf("Classify ignored the recorded class: %v", got)
	}
}

const squidSample = `982347195.744   110 10.0.0.1 TCP_HIT/200 4512 GET http://e.com/a.gif - NONE/- image/gif
# a comment line

982347196.001   200 10.0.0.2 TCP_MISS/200 812345 GET http://e.com/movie.mpg - DIRECT/origin video/mpeg
982347196.500    30 10.0.0.1 TCP_MISS/404 344 GET http://e.com/missing.html - DIRECT/origin text/html
982347197.100    10 10.0.0.3 TCP_MISS/200 99 POST http://e.com/form - DIRECT/origin -
`

func TestSquidReader(t *testing.T) {
	r := NewSquidReader(strings.NewReader(squidSample))
	var got []*Request
	for {
		req, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, req)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d records, want 4", len(got))
	}
	first := got[0]
	if first.UnixMillis != 982347195744 {
		t.Errorf("UnixMillis = %d, want 982347195744", first.UnixMillis)
	}
	if first.URL != "http://e.com/a.gif" || first.Status != 200 ||
		first.TransferSize != 4512 || first.ContentType != "image/gif" ||
		first.Client != "10.0.0.1" || first.Method != "GET" {
		t.Errorf("first record mismatch: %+v", first)
	}
	if got[3].Method != "POST" || got[3].ContentType != "" {
		t.Errorf("fourth record mismatch: %+v", got[3])
	}
}

func TestSquidReaderMalformed(t *testing.T) {
	r := NewSquidReader(strings.NewReader("garbage line\n"))
	_, err := r.Next()
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want ParseError, got %v", err)
	}
	if pe.Line != 1 {
		t.Errorf("ParseError.Line = %d, want 1", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 1") {
		t.Errorf("error text %q lacks line number", pe.Error())
	}
}

func TestSquidTimestampVariants(t *testing.T) {
	tests := []struct {
		in   string
		want int64
	}{
		{"100.5", 100500},
		{"100.50", 100500},
		{"100.500", 100500},
		{"100.5001", 100500},
		{"100", 100000},
	}
	for _, tt := range tests {
		got, err := parseSquidTimestamp(tt.in)
		if err != nil {
			t.Fatalf("parseSquidTimestamp(%q): %v", tt.in, err)
		}
		if got != tt.want {
			t.Errorf("parseSquidTimestamp(%q) = %d, want %d", tt.in, got, tt.want)
		}
	}
	if _, err := parseSquidTimestamp("abc.def"); err == nil {
		t.Error("garbage timestamp should fail")
	}
}

func sampleRequests() []*Request {
	return []*Request{
		{
			UnixMillis: 1000_000, URL: "http://e.com/a.gif", Status: 200,
			TransferSize: 4512, DocSize: 4512, ContentType: "image/gif",
			Class: doctype.Image, Client: "c1", Method: "GET",
		},
		{
			UnixMillis: 1000_250, URL: "http://e.com/b.html", Status: 304,
			TransferSize: 0, DocSize: 9000, ContentType: "text/html",
			Class: doctype.HTML, Client: "c2", Method: "GET",
		},
		{
			UnixMillis: 1002_000, URL: "http://e.com/song.mp3", Status: 206,
			TransferSize: 123456, DocSize: 4_000_000, ContentType: "",
			Class: doctype.MultiMedia, Client: "c1", Method: "GET",
		},
	}
}

func TestSquidRoundTrip(t *testing.T) {
	var sb strings.Builder
	w := NewSquidWriter(&sb)
	src := sampleRequests()
	for _, r := range src {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewSquidReader(strings.NewReader(sb.String())))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(src) {
		t.Fatalf("round-tripped %d records, want %d", len(got), len(src))
	}
	for i := range src {
		if got[i].URL != src[i].URL || got[i].Status != src[i].Status ||
			got[i].TransferSize != src[i].TransferSize ||
			got[i].UnixMillis != src[i].UnixMillis ||
			got[i].ContentType != src[i].ContentType {
			t.Errorf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], src[i])
		}
	}
}

func TestFilterReader(t *testing.T) {
	reqs := []*Request{
		{URL: "http://e.com/a.gif", Status: 200, Method: "GET"},
		{URL: "http://e.com/a.gif?x=1", Status: 200, Method: "GET"},
		{URL: "http://e.com/cgi-bin/x", Status: 200, Method: "GET"},
		{URL: "http://e.com/b.html", Status: 404, Method: "GET"},
		{URL: "http://e.com/c.html", Status: 200, Method: "POST"},
		{URL: "http://e.com/d.html", Status: 304, Method: "GET"},
	}
	f := NewFilterReader(NewSliceReader(reqs))
	got, err := ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("filtered stream has %d records, want 2", len(got))
	}
	st := f.Stats()
	if st.Passed != 2 || st.DroppedURL != 2 || st.DroppedStatus != 1 || st.DroppedMethod != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Dropped() != 4 {
		t.Errorf("Dropped = %d, want 4", st.Dropped())
	}
}

func TestFilterReaderSkipsMalformed(t *testing.T) {
	input := "garbage\n" + squidSample
	f := NewFilterReader(NewSquidReader(strings.NewReader(input)))
	got, err := ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	// squidSample has 4 records: one 404 and one POST are dropped.
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
	if f.Stats().Malformed != 1 {
		t.Errorf("Malformed = %d, want 1", f.Stats().Malformed)
	}
}

func TestSliceReaderReset(t *testing.T) {
	r := NewSliceReader(sampleRequests())
	first, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	r.Reset()
	second, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 || len(second) != 3 {
		t.Errorf("read %d then %d records, want 3 and 3", len(first), len(second))
	}
}
