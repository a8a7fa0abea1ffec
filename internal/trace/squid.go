package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Squid native access-log format, the format both traces of the paper were
// recorded in:
//
//	timestamp.ms elapsed client action/code size method URL ident hierarchy/from content-type
//
// e.g.
//
//	982347195.744   110 10.0.0.1 TCP_HIT/200 4512 GET http://e.com/a.gif - NONE/- image/gif

const (
	squidBlockSize = 256 << 10 // bytes a SquidReader decodes at a time; more for a longer line
	maxSquidLine   = 1 << 20   // a longer line ends the stream with bufio.ErrTooLong
)

// SquidReader parses Squid native access logs a block of whole lines at a
// time: a block is one string and one slab of Requests whose fields are
// substrings of it, so a line costs no allocation. Malformed lines produce
// a *ParseError from Next; callers may skip them and continue (the reader
// keeps its position).
type SquidReader struct {
	br        *bufio.Reader // holds a block; replaced by one of maxSquidLine for a longer line
	blockSize int
	rerr      error // what ended br

	cur  squidBlock // the block Next is walking
	pos  int
	line int64 // lines in the blocks before cur

	// Set by runAhead: the blocks, one future each, in stream order.
	ahead chan chan squidBlock
	stop  chan struct{}
	wg    sync.WaitGroup
}

// NewSquidReader returns a reader decoding Squid native log lines from r.
// It starts no goroutine and needs no closing; OpenFile's decodes ahead.
func NewSquidReader(r io.Reader) *SquidReader {
	return &SquidReader{br: bufio.NewReaderSize(r, squidBlockSize), blockSize: squidBlockSize}
}

// Next returns the next request in the log. It returns io.EOF at the end
// of the stream and *ParseError for a malformed line; a read error comes
// after every line read before it.
func (sr *SquidReader) Next() (*Request, error) {
	for sr.pos == len(sr.cur.reqs) {
		if err := sr.cur.err; err == io.EOF {
			return nil, err
		} else if err != nil {
			return nil, fmt.Errorf("trace: read squid log: %w", err)
		}
		sr.line += sr.cur.lines
		sr.cur, sr.pos = sr.nextBlock(), 0
	}
	sr.pos++
	if pe := sr.cur.bad[sr.pos-1]; pe != nil {
		pe.Line += sr.line
		return nil, pe
	}
	return &sr.cur.reqs[sr.pos-1], nil
}

// nextBlock cuts and decodes the next block, or takes it from ahead.
func (sr *SquidReader) nextBlock() squidBlock {
	if sr.ahead == nil {
		text, err := sr.cut()
		if err != nil {
			return squidBlock{err: err}
		}
		return decodeSquidBlock(text)
	}
	if future, ok := <-sr.ahead; ok {
		return <-future
	}
	return squidBlock{err: os.ErrClosed}
}

// runAhead moves the work off the caller's goroutine: one goroutine reads
// (a gzip file: inflates) and cuts blocks, each is decoded by a goroutine of
// its own, and Next walks finished blocks. The queue bounds decoders and
// memory: depth blocks, one being cut, one Next walks. The goroutines exit
// at the end of the stream or on stopAhead.
func (sr *SquidReader) runAhead(depth int) {
	sr.ahead = make(chan chan squidBlock, depth)
	sr.stop = make(chan struct{})
	sr.wg.Add(1)
	go func() {
		defer sr.wg.Done()
		defer close(sr.ahead)
		for {
			text, err := sr.cut()
			done := make(chan squidBlock, 1)
			select {
			case sr.ahead <- done:
			case <-sr.stop:
				return
			}
			if err != nil {
				done <- squidBlock{err: err}
				return
			}
			sr.wg.Add(1)
			go func() {
				defer sr.wg.Done()
				done <- decodeSquidBlock(text)
			}()
		}
	}()
}

// stopAhead stops runAhead's goroutines and waits for them; call it once,
// before closing the stream. Next then fails after the blocks in hand.
func (sr *SquidReader) stopAhead() {
	close(sr.stop)
	sr.wg.Wait()
}

// cut returns the next block: the whole lines among the next blockSize
// bytes (more when the first is longer) or, at the end of the stream, what
// is left, final newline or not; after that, what ended the stream.
func (sr *SquidReader) cut() (string, error) {
	for size := sr.blockSize; sr.rerr == nil; size *= 2 {
		if size > sr.br.Size() {
			sr.br = bufio.NewReaderSize(sr.br, maxSquidLine) // reads on through the old one
		}
		var data []byte
		data, sr.rerr = sr.br.Peek(min(size, maxSquidLine))
		end := len(data)
		if sr.rerr == nil {
			end = bytes.LastIndexByte(data, '\n') + 1
		}
		if end > 0 {
			block := string(data[:end])
			_, _ = sr.br.Discard(end) // peeked, so buffered: cannot fail
			return block, nil
		}
		if sr.rerr == nil && size >= maxSquidLine {
			sr.rerr = bufio.ErrTooLong
		}
	}
	return "", sr.rerr
}

// squidBlock is a decoded block. A malformed line takes a slot of reqs
// too and is kept in bad under it; Next adds the lines before the block.
type squidBlock struct {
	reqs  []Request
	bad   map[int]*ParseError // Line counts from the start of the block
	lines int64               // lines in the block, blank and comment lines included
	err   error               // on the empty block after the last: what ended the stream
}

// decodeSquidBlock parses the lines of text; blank and '#' lines are skipped.
func decodeSquidBlock(text string) squidBlock {
	b := squidBlock{reqs: make([]Request, 0, strings.Count(text, "\n")+1), bad: map[int]*ParseError{}}
	for len(text) > 0 {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		b.lines++
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		slot := len(b.reqs)
		b.reqs = b.reqs[:slot+1]
		if err := parseSquidLine(line, &b.reqs[slot]); err != nil {
			// The text is copied so that a kept error does not pin the block.
			b.bad[slot] = &ParseError{Line: b.lines, Text: strings.Clone(line), Err: err}
		}
	}
	return b
}

// squidFields is the number of fields of a native log line; anything after
// the tenth is ignored.
const squidFields = 10

// squidSpace marks ASCII white space, as unicode.IsSpace defines it.
var squidSpace = [utf8.RuneSelf]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

// splitSquidFields splits line around runs of white space, as
// strings.Fields does, into fields — substrings of line, no slice
// allocated — and returns how many it found, stopping at squidFields.
func splitSquidFields(line string, fields *[squidFields]string) int {
	n, start := 0, -1
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c >= utf8.RuneSelf:
			// Unicode has more white space than ASCII; real logs get here
			// only through the odd unescaped URL.
			return copy(fields[:], strings.Fields(line))
		case squidSpace[c]:
			if start >= 0 {
				fields[n] = line[start:i]
				start = -1
				if n++; n == squidFields {
					return n
				}
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		fields[n] = line[start:]
		n++
	}
	return n
}

// ParseSquidLine decodes one Squid native access-log line.
func ParseSquidLine(line string) (*Request, error) {
	req := new(Request)
	if err := parseSquidLine(line, req); err != nil {
		return nil, err
	}
	return req, nil
}

// parseSquidLine decodes line into req, whose strings are substrings of
// line; req is written only when the line is well formed.
func parseSquidLine(line string, req *Request) error {
	var fields [squidFields]string
	if n := splitSquidFields(line, &fields); n < squidFields {
		return fmt.Errorf("%w: got %d, want >= %d", errFieldCount, n, squidFields)
	}
	ts, err := parseSquidTimestamp(fields[0])
	if err != nil {
		return fmt.Errorf("timestamp: %w", err)
	}
	actionCode := fields[3]
	slash := strings.LastIndexByte(actionCode, '/')
	if slash < 0 {
		return fmt.Errorf("malformed action/code %q", actionCode)
	}
	status, err := strconv.Atoi(actionCode[slash+1:])
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	size, err := parseInt64(fields[4])
	if err != nil {
		return fmt.Errorf("size: %w", err)
	}
	contentType := fields[9]
	if contentType == "-" {
		contentType = ""
	}
	*req = Request{
		UnixMillis:   ts,
		Client:       fields[2],
		Status:       status,
		TransferSize: size,
		Method:       fields[5],
		URL:          fields[6],
		ContentType:  contentType,
	}
	return nil
}

// parseSquidTimestamp converts "seconds.millis" to Unix milliseconds.
func parseSquidTimestamp(s string) (int64, error) {
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		sec, err := strconv.ParseInt(s, 10, 64)
		return sec * 1000, err
	}
	sec, err := strconv.ParseInt(s[:dot], 10, 64)
	if err != nil {
		return 0, err
	}
	frac := s[dot+1:]
	// Normalize the fractional part to exactly three digits.
	switch {
	case len(frac) > 3:
		frac = frac[:3]
	case len(frac) < 3:
		frac += strings.Repeat("0", 3-len(frac))
	}
	ms, err := strconv.ParseInt(frac, 10, 64)
	if err != nil {
		return 0, err
	}
	return sec*1000 + ms, nil
}

// SquidWriter emits requests in Squid native access-log format.
type SquidWriter struct {
	w   *bufio.Writer
	buf []byte
}

var _ Writer = (*SquidWriter)(nil)

// NewSquidWriter returns a writer encoding requests to w. Call Flush when
// done.
func NewSquidWriter(w io.Writer) *SquidWriter {
	return &SquidWriter{w: bufio.NewWriterSize(w, 256*1024)}
}

// Write encodes one request as a log line.
func (sw *SquidWriter) Write(r *Request) error {
	b := sw.buf[:0]
	b = strconv.AppendInt(b, r.UnixMillis/1000, 10)
	b = append(b, '.')
	ms := r.UnixMillis % 1000
	if ms < 0 {
		ms = 0
	}
	if ms < 100 {
		b = append(b, '0')
	}
	if ms < 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, ms, 10)
	b = append(b, " 0 "...)
	b = appendField(b, r.Client)
	b = append(b, " TCP_MISS/"...)
	b = strconv.AppendInt(b, int64(r.Status), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, r.TransferSize, 10)
	b = append(b, ' ')
	method := r.Method
	if method == "" {
		method = "GET"
	}
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, r.URL...)
	b = append(b, " - NONE/- "...)
	b = appendField(b, r.ContentType)
	b = append(b, '\n')
	sw.buf = b
	if _, err := sw.w.Write(b); err != nil {
		return fmt.Errorf("trace: write squid log: %w", err)
	}
	return nil
}

// Flush writes buffered output to the underlying writer.
func (sw *SquidWriter) Flush() error {
	if err := sw.w.Flush(); err != nil {
		return fmt.Errorf("trace: flush squid log: %w", err)
	}
	return nil
}

func appendField(b []byte, s string) []byte {
	if s == "" {
		return append(b, '-')
	}
	return append(b, s...)
}
