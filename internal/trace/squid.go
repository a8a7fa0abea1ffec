package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
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

// SquidReader parses Squid native access logs line by line. Malformed
// lines produce a *ParseError from Next; callers may skip them and
// continue (the reader keeps its position).
type SquidReader struct {
	scanner *bufio.Scanner
	line    int64
}

var _ Reader = (*SquidReader)(nil)

// NewSquidReader returns a reader decoding Squid native log lines from r.
func NewSquidReader(r io.Reader) *SquidReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &SquidReader{scanner: sc}
}

// Next returns the next request in the log. It returns io.EOF at the end
// of the stream and *ParseError for a malformed line.
func (sr *SquidReader) Next() (*Request, error) {
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

// squidFields is the number of fields of a native log line; anything after
// the tenth is ignored.
const squidFields = 10

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
		case c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r':
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
	var fields [squidFields]string
	if n := splitSquidFields(line, &fields); n < squidFields {
		return nil, fmt.Errorf("%w: got %d, want >= %d", errFieldCount, n, squidFields)
	}
	ts, err := parseSquidTimestamp(fields[0])
	if err != nil {
		return nil, fmt.Errorf("timestamp: %w", err)
	}
	actionCode := fields[3]
	slash := strings.LastIndexByte(actionCode, '/')
	if slash < 0 {
		return nil, fmt.Errorf("malformed action/code %q", actionCode)
	}
	status, err := strconv.Atoi(actionCode[slash+1:])
	if err != nil {
		return nil, fmt.Errorf("status: %w", err)
	}
	size, err := parseInt64(fields[4])
	if err != nil {
		return nil, fmt.Errorf("size: %w", err)
	}
	contentType := fields[9]
	if contentType == "-" {
		contentType = ""
	}
	return &Request{
		UnixMillis:   ts,
		Client:       fields[2],
		Status:       status,
		TransferSize: size,
		Method:       fields[5],
		URL:          fields[6],
		ContentType:  contentType,
	}, nil
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
