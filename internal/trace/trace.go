// Package trace defines the proxy request-stream model used throughout the
// study and implements the trace formats and the preprocessing rules of
// Section 2 of the paper: parsing of Squid native access logs (the format
// both the DFN and NLANR RTP traces were recorded in), binary formats for
// fast repeated simulation (the interned WCT2 record stream, whose string
// tables match the simulator's dense document IDs, and the mmap-able WCT3
// workload image), the URL interner itself, and the cacheability filter
// (CGI/query heuristics plus the HTTP status-code whitelist).
package trace

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"webcachesim/internal/doctype"
)

// Request is one entry of a proxy request stream after preprocessing.
type Request struct {
	// UnixMillis is the request completion time in milliseconds since the
	// Unix epoch, as recorded by the proxy.
	UnixMillis int64
	// URL identifies the requested document.
	URL string
	// Status is the HTTP response status code.
	Status int
	// TransferSize is the number of bytes delivered to the client for this
	// request. It can be smaller than the full document size when the
	// client interrupted the transfer.
	TransferSize int64
	// DocSize is the full size of the document if known. Synthetic traces
	// always record it; for real logs it is zero and the simulator infers
	// document sizes from the transfer-size history, as the paper does.
	DocSize int64
	// ContentType is the MIME type from the response header ("" if the
	// proxy did not record one).
	ContentType string
	// Class is the document classification if the trace recorded one. A
	// zero (Unknown) class means the producer left classification to the
	// consumer; Classify derives it without mutating the request, so
	// Requests can be shared across goroutines once constructed.
	Class doctype.Class
	// Client identifies the requesting client (opaque; used only by
	// characterization).
	Client string
	// Method is the HTTP request method.
	Method string
}

// Classify returns the request's document class, deriving it from the
// content type and URL when the Class field is unset. Classify is pure: it
// never writes to the request, so a []*Request shared by concurrent
// simulation cells stays race-free. Callers that want the class resolved
// once should store the result themselves (core.BuildWorkload does this
// eagerly at ingest time).
func (r *Request) Classify() doctype.Class {
	if r.Class != doctype.Unknown {
		return r.Class
	}
	return doctype.Classify(r.ContentType, r.URL)
}

// CacheableStatus reports whether an HTTP status code marks a response as
// cacheable. The whitelist follows Section 2 of the paper: 200 (OK), 203
// (Non-Authoritative Information), 206 (Partial Content), 300 (Multiple
// Choices), 301 (Moved Permanently), 302 (Found), and 304 (Not Modified).
func CacheableStatus(status int) bool {
	switch status {
	case 200, 203, 206, 300, 301, 302, 304:
		return true
	default:
		return false
	}
}

// UncacheableURL reports whether a URL is excluded by the commonly known
// dynamic-content heuristics the paper applies: the substring "cgi" or a
// "?" anywhere in the URL.
func UncacheableURL(url string) bool {
	for i := 0; i < len(url); i++ {
		switch c := url[i]; {
		case c == '?', c|0x20 == 'c' && i+2 < len(url) && url[i+1]|0x20 == 'g' && url[i+2]|0x20 == 'i':
			return true
		case c >= utf8.RuneSelf:
			// Only Unicode case mapping answers: "CGİ" lower-cased contains "cgi".
			return strings.Contains(url, "?") || strings.Contains(strings.ToLower(url), "cgi")
		}
	}
	return false
}

// Cacheable reports whether the request survives preprocessing: a GET (or
// unrecorded) method for a cacheable status on a non-dynamic URL.
func Cacheable(r *Request) bool {
	if r.Method != "" && r.Method != "GET" {
		return false
	}
	if !CacheableStatus(r.Status) {
		return false
	}
	return !UncacheableURL(r.URL)
}

// Reader yields a request stream. Next returns the next request, or an
// error; io.EOF marks the clean end of the stream. A returned Request stays
// valid, but its strings may alias a block of input that many requests
// share: strings.Clone the ones you keep, or each pins its whole block.
type Reader interface {
	Next() (*Request, error)
}

// Writer persists a request stream.
type Writer interface {
	Write(*Request) error
}

// ParseError describes a malformed trace line.
type ParseError struct {
	Line int64
	Text string
	Err  error
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	text := e.Text
	if len(text) > 120 {
		text = text[:120] + "..."
	}
	return fmt.Sprintf("trace: line %d: %v (%q)", e.Line, e.Err, text)
}

var errFieldCount = errors.New("wrong field count")

// parseInt64 parses a decimal int64 field, treating "-" (Squid's marker
// for an absent value) as zero.
func parseInt64(s string) (int64, error) {
	if s == "-" || s == "" {
		return 0, nil
	}
	return strconv.ParseInt(s, 10, 64)
}
