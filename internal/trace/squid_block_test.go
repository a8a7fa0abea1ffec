package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	stdiotest "testing/iotest"
	"time"
)

// scannerReader is the decoder SquidReader replaced, kept as the reference
// the block decoder is compared with: a bufio.Scanner with a 1 MiB line
// limit and ParseSquidLine on each trimmed line.
type scannerReader struct {
	scanner *bufio.Scanner
	line    int64
}

func newScannerReader(r io.Reader) *scannerReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &scannerReader{scanner: sc}
}

func (sr *scannerReader) Next() (*Request, error) {
	for sr.scanner.Scan() {
		sr.line++
		text := strings.TrimSpace(sr.scanner.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		req, err := ParseSquidLine(text)
		if err != nil {
			return nil, &ParseError{Line: sr.line, Text: text, Err: err}
		}
		return req, nil
	}
	if err := sr.scanner.Err(); err != nil {
		return nil, fmt.Errorf("trace: read squid log: %w", err)
	}
	return nil, io.EOF
}

// squidItem is one result of Next, flattened so that two readers' output
// compares with reflect.DeepEqual: a request, or a malformed line, or the
// error that ended the stream (after which nothing follows).
type squidItem struct {
	Req      Request
	Line     int64
	Text, Is string
}

// collect drains r, skipping over malformed lines as FilterReader does.
func collect(r Reader) []squidItem {
	var out []squidItem
	for {
		req, err := r.Next()
		var pe *ParseError
		switch {
		case err == nil:
			out = append(out, squidItem{Req: *req})
		case errors.As(err, &pe):
			out = append(out, squidItem{Line: pe.Line, Text: pe.Text, Is: pe.Err.Error()})
		case err == io.EOF:
			return out
		default:
			return append(out, squidItem{Is: err.Error()})
		}
	}
}

// sameItems fails the test at the first item in which got differs from
// the reference's want.
func sameItems(t testing.TB, name string, got, want []squidItem) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	at := func(items []squidItem, i int) string {
		if i >= len(items) {
			return "nothing"
		}
		s := fmt.Sprintf("%+v", items[i])
		return s[:min(len(s), 300)]
	}
	for i := 0; ; i++ {
		if g, w := at(got, i), at(want, i); g != w {
			t.Fatalf("%s: %d items, the scanner reads %d; item %d:\n got %s\nwant %s", name, len(got), len(want), i, g, w)
		}
	}
}

// sameAsScanner reads the stream open returns with the block decoder, at
// the given block size and with that many workers decoding ahead (none:
// inline), and with the reference, and compares what they yield. The block
// decoder's end of stream must also repeat.
func sameAsScanner(t testing.TB, name string, open func() io.Reader, blockSize, workers int) {
	t.Helper()
	sr := NewSquidReader(open())
	sr.blockSize = blockSize
	if workers > 0 {
		sr.runAhead(workers)
		defer sr.stopAhead()
	}
	name = fmt.Sprintf("%s, %d-byte blocks, %d workers", name, blockSize, workers)
	sameItems(t, name, collect(sr), collect(newScannerReader(open())))
	_, end := sr.Next()
	if _, again := sr.Next(); end == nil || again == nil || end.Error() != again.Error() {
		t.Errorf("%s: the end of the stream does not repeat: %v, then %v", name, end, again)
	}
}

const (
	goodLine = "982347195.744 110 10.0.0.1 TCP_HIT/200 4512 GET http://e.com/a.gif - NONE/- image/gif"
	nextLine = "982347196.1 5 10.0.0.2 TCP_MISS/404 0 POST http://e.com/cgi-bin/x?y=1 - DIRECT/e.com -"
)

// squidFixtures are the inputs on which the block decoder must read
// exactly what the scanner read.
func squidFixtures() map[string]string {
	lines := func(ls ...string) string { return strings.Join(ls, "\n") + "\n" }
	return map[string]string{
		"empty":               "",
		"one line":            lines(goodLine),
		"no trailing newline": lines(goodLine) + nextLine,
		"blank and comment lines": lines("", "# header", goodLine, "", "   ", "\t", "  # indented comment",
			nextLine, "#", ""),
		"only blank lines":     "\n\n\n",
		"CRLF":                 strings.ReplaceAll(lines(goodLine, "", "# c", "bad line", nextLine), "\n", "\r\n"),
		"lone CR at the end":   lines(goodLine) + "\r",
		"CR CR LF":             goodLine + "\r\r\n" + nextLine + "\r\r",
		"malformed lines":      lines("garbage", goodLine, "1 2 3", "x.y 1 c A/200 5 GET u - h t", "1.5 1 c A200 5 GET u - h t", "1.5 1 c A/x 5 GET u - h t", "1.5 1 c A/200 z GET u - h t", nextLine, "trailing garbage"),
		"malformed at the end": lines(goodLine) + "no newline and no fields",
		"non-ASCII white space": lines("\u00a0"+goodLine+"\u2003", strings.ReplaceAll(nextLine, " ", "\u2003"),
			"\u0085", "\u3000#\u3000not a comment: the space before # is trimmed, so it is one",
			"982347195.744 110 10.0.0.1 TCP_HIT/200 4512 GET http://e.com/\u00e9.gif - NONE/- image/gif"),
		"invalid UTF-8 and NUL":  lines("\xff\xfe "+goodLine, "982347195.744 110 c A/200 1 GET http://e.com/\x00\xff - h t", "\x00"),
		"more than ten fields":   lines(goodLine + " extra fields are ignored"),
		"many lines":             strings.Repeat(lines(goodLine, nextLine, "bad", ""), 300),
		"line of 1 MiB less one": lines(goodLine, strings.Repeat("x", maxSquidLine-1), nextLine),
		"line of 1 MiB":          lines(goodLine, nextLine, strings.Repeat("x", maxSquidLine), nextLine),
		"line over 1 MiB":        lines(goodLine, strings.Repeat("x ", maxSquidLine), nextLine),
		"1 MiB and no newline":   lines(goodLine) + strings.Repeat("x", maxSquidLine),
		"nearly 1 MiB, no newline": lines(goodLine) +
			strings.Repeat("x", maxSquidLine-1),
	}
}

// TestSquidBlocksMatchScanner is the differential test of the block
// decoder: on every fixture, at block sizes that put a boundary inside a
// line, exactly on its newline and just after it, through readers that
// return a byte at a time or data together with io.EOF, inline and
// decoding ahead, it yields the requests, the ParseErrors (line numbers
// and text) and the final error the line-at-a-time decoder yielded.
func TestSquidBlocksMatchScanner(t *testing.T) {
	for name, text := range squidFixtures() {
		plain := func() io.Reader { return strings.NewReader(text) }
		sizes := []int{1, 2, 7, len(goodLine) - 1, len(goodLine), len(goodLine) + 1, len(goodLine) + 2, 4096, squidBlockSize}
		if len(text) > maxSquidLine/2 {
			sizes = []int{1, squidBlockSize} // each pass copies a megabyte
		}
		for _, size := range sizes {
			sameAsScanner(t, name, plain, size, 0)
			sameAsScanner(t, name, plain, size, 3)
		}
		if len(text) < 1<<16 {
			sameAsScanner(t, name+", a byte a read", func() io.Reader { return stdiotest.OneByteReader(plain()) }, 64, 0)
		}
		// The one difference: a last line of exactly maxSquidLine bytes, no
		// newline, whose end arrives in the same Read as io.EOF. The
		// scanner let it through; the limit here does not depend on how
		// the reader reports its end.
		if name != "1 MiB and no newline" {
			sameAsScanner(t, name+", data with EOF", func() io.Reader { return stdiotest.DataErrReader(plain()) }, 4096, 0)
		}
	}
}

// FuzzSquidBlocks: whatever the bytes and wherever the blocks are cut, the
// block decoder reads what the scanner reads.
func FuzzSquidBlocks(f *testing.F) {
	for _, text := range squidFixtures() {
		if len(text) < 1<<12 {
			f.Add([]byte(text), uint16(len(text)/3))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, size uint16) {
		sameAsScanner(t, "fuzz", func() io.Reader { return bytes.NewReader(data) }, 1+int(size)%4096, 0)
	})
}

// mixedLog renders a log with every kind of line the filter tells apart.
func mixedLog(n int) []byte {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("http://h%d.example/d%d.%s", rng.Intn(20), rng.Intn(n/4+1), []string{"gif", "html", "mp3", "pdf"}[rng.Intn(4)])
		switch rng.Intn(12) {
		case 0:
			url += "?q=1"
		case 1:
			url = strings.Replace(url, "/d", "/CGI-bin/d", 1)
		case 2:
			buf.WriteString("# comment\n\n")
		case 3:
			buf.WriteString("a malformed line\n")
		}
		fmt.Fprintf(&buf, "%d.%03d %d 10.0.%d.%d TCP_MISS/%d %d %s %s - DIRECT/h text/html\n",
			982347195+i, rng.Intn(1000), rng.Intn(500), rng.Intn(4), rng.Intn(250),
			[]int{200, 200, 200, 304, 404, 500}[rng.Intn(6)], rng.Intn(1<<20), []string{"GET", "GET", "GET", "POST"}[rng.Intn(4)], url)
	}
	return buf.Bytes()
}

// writeGzip writes data, gzip-compressed, to a file in a test directory.
func writeGzip(t *testing.T, data []byte) string {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.log.gz")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenFileMatchesScanner reads a gzip log of many blocks through
// OpenFile — the decoder running ahead on goroutines — and checks the
// stream and the filter's counters against the reference.
func TestOpenFileMatchesScanner(t *testing.T) {
	data := mixedLog(12_000) // five blocks
	fr, err := OpenFile(writeGzip(t, data), FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	sameItems(t, "OpenFile", collect(fr), collect(newScannerReader(bytes.NewReader(data))))
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}

	fr, err = OpenFile(writeGzip(t, data), FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	got, want := NewFilterReader(fr), NewFilterReader(newScannerReader(bytes.NewReader(data)))
	sameItems(t, "filtered", collect(got), collect(want))
	if got.Stats() != want.Stats() {
		t.Errorf("FilterStats = %+v, the scanner's are %+v", got.Stats(), want.Stats())
	}
	if s := got.Stats(); s.Passed == 0 || s.DroppedURL == 0 || s.DroppedStatus == 0 || s.DroppedMethod == 0 || s.Malformed == 0 {
		t.Errorf("the log does not exercise every counter: %+v", s)
	}
}

// TestTruncatedGzipFails: a gzip log cut short must not read as a shorter
// log. Every line inflated before the cut is delivered, then the error.
func TestTruncatedGzipFails(t *testing.T) {
	whole, err := os.ReadFile(writeGzip(t, mixedLog(12_000)))
	if err != nil {
		t.Fatal(err)
	}
	cut := whole[:len(whole)*2/3]
	path := filepath.Join(t.TempDir(), "cut.log.gz")
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	fr, err := OpenFile(path, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	got := collect(fr)
	zr, err := gzip.NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	want := collect(newScannerReader(zr))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%d items, last %v; the scanner reads %d, last %v", len(got), got[len(got)-1], len(want), want[len(want)-1])
	}
	if last := got[len(got)-1]; len(got) < 4000 || !strings.Contains(last.Is, io.ErrUnexpectedEOF.Error()) {
		t.Errorf("%d items ending in %+v, want most of the log and then an unexpected EOF", len(got), last)
	}
	if _, err := fr.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("Next after the end = %v, want it to wrap io.ErrUnexpectedEOF", err)
	}
}

// TestReadErrorSurfacesAfterEarlierLines: an I/O error in the middle of
// the stream, inline and ahead, comes after everything read before it.
func TestReadErrorSurfacesAfterEarlierLines(t *testing.T) {
	data := mixedLog(3000)
	boom := errors.New("boom")
	failing := func() io.Reader {
		return io.MultiReader(bytes.NewReader(data[:len(data)/2]), stdiotest.ErrReader(boom))
	}
	want := collect(newScannerReader(failing()))
	if last := want[len(want)-1]; len(want) < 1000 || last.Is != "trace: read squid log: boom" {
		t.Fatalf("the reference reads %d items ending in %+v", len(want), last)
	}
	for _, size := range []int{100, 4096, squidBlockSize} {
		sr := NewSquidReader(failing())
		sr.blockSize = size
		if got := collect(sr); !reflect.DeepEqual(got, want) {
			t.Errorf("%d-byte blocks: %d items ending in %+v, want %d ending in the read error", size, len(got), got[len(got)-1], len(want))
		}
		sr = NewSquidReader(failing())
		sr.blockSize = size
		sr.runAhead(2)
		if got := collect(sr); !reflect.DeepEqual(got, want) {
			t.Errorf("%d-byte blocks, ahead: %d items ending in %+v, want %d ending in the read error", size, len(got), got[len(got)-1], len(want))
		}
		if _, err := sr.Next(); !errors.Is(err, boom) {
			t.Errorf("Next after the end = %v, want it to wrap the read error", err)
		}
		sr.stopAhead()
	}
}

// TestStalledReaderEndsTheStream: a reader that keeps returning (0, nil)
// is an error, as it is for bufio, not a spin.
func TestStalledReaderEndsTheStream(t *testing.T) {
	stalled := io.MultiReader(strings.NewReader(goodLine+"\n"), readerFunc(func([]byte) (int, error) { return 0, nil }))
	got := collect(NewSquidReader(stalled))
	if len(got) != 2 || got[0].Req.URL != "http://e.com/a.gif" || !strings.Contains(got[1].Is, io.ErrNoProgress.Error()) {
		t.Errorf("got %+v, want the line and then io.ErrNoProgress", got)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// goroutinesSettleAt waits for the goroutine count to come back to n.
func goroutinesSettleAt(t *testing.T, n int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, %d before OpenFile\n%s", when, runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestStoppedReaderFails: with fewer blocks in flight than the stream has,
// a reader stopped early ends in os.ErrClosed, not in io.EOF or a hang.
func TestStoppedReaderFails(t *testing.T) {
	sr := NewSquidReader(bytes.NewReader(mixedLog(40_000))) // 15 blocks
	sr.runAhead(2)
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	sr.stopAhead()
	got := collect(sr)
	if last := got[len(got)-1]; len(got) > 20_000 || !strings.Contains(last.Is, os.ErrClosed.Error()) {
		t.Errorf("a stopped reader went on for %d items to %+v, want at most four blocks and os.ErrClosed", len(got), last)
	}
}

// TestOpenFileLeavesNoGoroutine: the goroutines reading ahead exit when
// the file is closed early — Close waits for them — and on their own at
// the end of the stream; a closed reader does not block.
func TestOpenFileLeavesNoGoroutine(t *testing.T) {
	path := writeGzip(t, mixedLog(40_000)) // 15 blocks: more than are in flight on four cores
	before := runtime.NumGoroutine()

	fr, err := OpenFile(path, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	// Close has waited for their last statement; the runtime may still be
	// retiring them.
	goroutinesSettleAt(t, before, "after an early Close")
	// What was decoded before Close may still be read; then the reader
	// fails (or, on a machine with cores for the whole file, ends).
	rest, err := ReadAll(NewFilterReader(fr))
	if len(rest) >= 40_000 || err != nil && !errors.Is(err, os.ErrClosed) {
		t.Errorf("a closed reader went on for %d requests to %v, want os.ErrClosed", len(rest), err)
	}
	if err := fr.Close(); err == nil {
		t.Error("a second Close reports nothing; the file was already closed")
	}

	fr, err = OpenFile(path, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(NewFilterReader(fr)); err != nil {
		t.Fatal(err)
	}
	goroutinesSettleAt(t, before, "at the end of the stream, before Close")
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
}
