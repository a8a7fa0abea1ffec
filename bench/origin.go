package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// originSpan is one request the stub origin served, on the recorder's
// time axis; the traced run matches it to the client request that caused
// it by document and interval.
type originSpan struct {
	doc        int32
	start, end int64
}

// origin is the stub upstream of the serving workloads: it answers each
// known path with the document's generated size and content type, cutting
// the body out of the rotated pattern block.
type origin struct {
	docs    []doc
	byPath  map[string]int32
	fetches atomic.Int64

	// rec is nil in the untraced run; in the traced one, tracing switches
	// span recording on for the traced passes only.
	rec     *recorder
	tracing atomic.Bool
	mu      sync.Mutex
	spans   []originSpan
}

func newOrigin(docs []doc, rec *recorder) *origin {
	return &origin{docs: docs, byPath: pathIndex(docs), rec: rec}
}

// pathIndex maps each document's path to its index in docs.
func pathIndex(docs []doc) map[string]int32 {
	byPath := make(map[string]int32, len(docs))
	for i := range docs {
		byPath[docs[i].path] = int32(i)
	}
	return byPath
}

// ServeHTTP implements http.Handler.
func (o *origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, ok := o.byPath[r.URL.Path]
	if !ok {
		http.NotFound(w, r)
		return
	}
	traced := o.rec != nil && o.tracing.Load()
	var start time.Time
	if traced {
		start = time.Now()
	}
	o.fetches.Add(1)
	d := &o.docs[id]
	h := w.Header()
	if d.ctype != "" {
		h["Content-Type"] = []string{d.ctype}
	} else {
		// A nil value stops net/http from sniffing one: the generator's
		// "other" class has no content type, and the origin must not
		// invent it.
		h["Content-Type"] = nil
	}
	h["Content-Length"] = []string{contentLength(d.size)}
	writePattern(w, d.off, d.size)
	if traced {
		sp := originSpan{doc: id, start: o.rec.since(start), end: o.rec.since(time.Now())}
		o.mu.Lock()
		o.spans = append(o.spans, sp)
		o.mu.Unlock()
	}
}

// takeSpans returns and clears the spans recorded so far.
func (o *origin) takeSpans() []originSpan {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.spans
	o.spans = nil
	return s
}

// writePattern writes size body bytes starting at rotation off. A write
// error means the peer went away; the caller's side of the connection
// reports it, so it is not repeated here.
func writePattern(w http.ResponseWriter, off uint32, size int64) {
	pos := int(off)
	for size > 0 {
		n := patternLen - pos
		if int64(n) > size {
			n = int(size)
		}
		if _, err := w.Write(pattern[pos : pos+n]); err != nil {
			return
		}
		size -= int64(n)
		pos = (pos + n) % patternLen
	}
}

// nullBody is what the null server answers every request with: the median
// document of the DFN profile is about this size.
const nullBodyLen = 2700

// nullHandler answers every path with the same fixed body. The load
// generator run against it is the floor under every serving number: what
// client, net/http and the kernel cost with no cache behind them.
func nullHandler() http.Handler {
	length := []string{contentLength(nullBodyLen)}
	ctype := []string{"image/gif"}
	hit := []string{"HIT"}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		h := w.Header()
		h["Content-Type"] = ctype
		h["Content-Length"] = length
		h["X-Cache"] = hit
		_, _ = w.Write(pattern[:nullBodyLen]) // as writePattern: the client reports a lost peer
	})
}

// listener is an http.Server on a loopback port of the kernel's choosing.
type listener struct {
	ln   net.Listener
	srv  *http.Server // nil until serve
	url  *url.URL
	done chan error
}

// reserve binds 127.0.0.1:0 without serving yet: fleet members must know
// each other's addresses before any of their handlers can be built.
func reserve() (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return &listener{
		ln:   ln,
		url:  &url.URL{Scheme: "http", Host: ln.Addr().String()},
		done: make(chan error, 1),
	}, nil
}

// serve starts serving h, the way cmd/wcproxy serves its handler.
func (l *listener) serve(h http.Handler) {
	l.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { l.done <- l.srv.Serve(l.ln) }()
}

// listen reserves a loopback port and serves h on it.
func listen(h http.Handler) (*listener, error) {
	l, err := reserve()
	if err != nil {
		return nil, err
	}
	l.serve(h)
	return l, nil
}

// addr is the host:port clients dial.
func (l *listener) addr() string { return l.url.Host }

// close drains in-flight requests and waits for the serve loop to end.
func (l *listener) close() error {
	if l.srv == nil {
		if err := l.ln.Close(); err != nil {
			return fmt.Errorf("close listener %s: %w", l.addr(), err)
		}
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("close listener %s: %w", l.addr(), err)
	}
	return nil
}
