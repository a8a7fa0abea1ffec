package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webcachesim/internal/doctype"
)

// How a response was answered, from its X-Cache header. A failed
// operation (see check) overrides whatever the header said.
const (
	outMiss uint8 = iota
	outHit
	outPeerHit
	outFailed
)

const (
	clientBufSize = 64 << 10
	// passTimeout bounds one pass; a response slower than this is a
	// failed operation and ends the pass.
	passTimeout = 120 * time.Second
	// fullCheckEvery selects the requests whose whole body is compared
	// with the pattern; the rest compare the first and last edgeCheck
	// bytes.
	fullCheckEvery = 64
	edgeCheck      = 64
)

// conn is one keep-alive HTTP/1.1 connection of the load generator.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, clientBufSize)}, nil
}

// redial replaces a connection whose stream position is no longer known.
func (c *conn) redial() error {
	_ = c.c.Close() // the connection is being abandoned either way
	n, err := dial(c.addr)
	if err != nil {
		return err
	}
	*c = *n
	return nil
}

var (
	hdrLength    = []byte("Content-Length: ")
	hdrType      = []byte("Content-Type: ")
	hdrXCache    = []byte("X-Cache: ")
	hdrCoalesced = []byte("X-Coalesced: ")
	valHit       = []byte("HIT")
	valPeerHit   = []byte("PEER-HIT")
)

// exchange sends one pre-rendered request and reads the response,
// checking it against what the origin serves for d. It returns how the
// response was answered, whether it shared another request's fetch, and
// whether the connection is still positioned at a response boundary. Any
// of these makes the operation failed: a transport error or timeout, a
// status other than 200, a missing or wrong Content-Length, a content
// type other than the document's, or body bytes that differ from the
// pattern (first and last edgeCheck bytes always, every byte when full).
func (c *conn) exchange(wire []byte, d *doc, full bool) (out uint8, coalesced, inSync bool) {
	if _, err := c.c.Write(wire); err != nil {
		return outFailed, false, false
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil || len(line) < 12 {
		return outFailed, false, false
	}
	ok := bytes.Equal(line[9:12], []byte("200"))
	length := int64(-1)
	out = outMiss
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return outFailed, false, false
		}
		if len(line) <= 2 {
			break
		}
		line = line[:len(line)-2]
		switch {
		case bytes.HasPrefix(line, hdrLength):
			length = 0
			for _, ch := range line[len(hdrLength):] {
				if ch < '0' || ch > '9' {
					return outFailed, false, false
				}
				length = length*10 + int64(ch-'0')
			}
		case bytes.HasPrefix(line, hdrType):
			// The generator's "other" class has no content type of its
			// own; whatever net/http sniffed for it is accepted.
			if d.ctype != "" && string(line[len(hdrType):]) != d.ctype {
				ok = false
			}
		case bytes.HasPrefix(line, hdrXCache):
			switch v := line[len(hdrXCache):]; {
			case bytes.Equal(v, valHit):
				out = outHit
			case bytes.Equal(v, valPeerHit):
				out = outPeerHit
			}
		case bytes.HasPrefix(line, hdrCoalesced):
			coalesced = true
		}
	}
	if length < 0 {
		// Without a declared length the end of the body is unknowable on
		// a keep-alive connection.
		return outFailed, coalesced, false
	}
	if length != d.size {
		ok = false
	}
	for pos := int64(0); pos < length; {
		chunk, err := c.br.Peek(int(min(length-pos, clientBufSize)))
		if err != nil {
			return outFailed, coalesced, false
		}
		if ok && !checkChunk(chunk, pos, d, full) {
			ok = false
		}
		// Discard of bytes Peek just returned cannot fail.
		_, _ = c.br.Discard(len(chunk))
		pos += int64(len(chunk))
	}
	if !ok {
		return outFailed, coalesced, true
	}
	return out, coalesced, true
}

// checkChunk compares the part of a body at [pos, pos+len(chunk)) with
// the document's rotation of the pattern: all of it when full, otherwise
// only where it overlaps the first or last edgeCheck bytes.
func checkChunk(chunk []byte, pos int64, d *doc, full bool) bool {
	if full {
		return patternEqual(chunk, pos, d.off)
	}
	end := pos + int64(len(chunk))
	for _, r := range [2][2]int64{{0, edgeCheck}, {d.size - edgeCheck, d.size}} {
		lo, hi := max(r[0], pos), min(r[1], end)
		if lo < hi && !patternEqual(chunk[lo-pos:hi-pos], lo, d.off) {
			return false
		}
	}
	return true
}

// patternEqual reports whether b equals the pattern rotated by off, read
// from body position pos.
func patternEqual(b []byte, pos int64, off uint32) bool {
	p := int((int64(off) + pos) % patternLen)
	for len(b) > 0 {
		n := min(len(b), patternLen-p)
		if !bytes.Equal(b[:n], pattern[p:p+n]) {
			return false
		}
		b = b[n:]
		p = (p + n) % patternLen
	}
	return true
}

// classTally is the client-side count of one document class.
type classTally struct {
	requests, hits, bytes, hitBytes int64
}

// tally is what the client saw over some span of requests. Hits include
// peer hits, as hit_rate does; peerHits counts those alone.
type tally struct {
	requests, failed          int64
	hits, peerHits, coalesced int64
	bytes, hitBytes           int64
	byClass                   [doctype.NumClasses + 1]classTally
}

func (t *tally) add(o *tally) {
	t.requests += o.requests
	t.failed += o.failed
	t.hits += o.hits
	t.peerHits += o.peerHits
	t.coalesced += o.coalesced
	t.bytes += o.bytes
	t.hitBytes += o.hitBytes
	for i := range t.byClass {
		t.byClass[i].requests += o.byClass[i].requests
		t.byClass[i].hits += o.byClass[i].hits
		t.byClass[i].bytes += o.byClass[i].bytes
		t.byClass[i].hitBytes += o.byClass[i].hitBytes
	}
}

func (t *tally) count(d *doc, out uint8, coalesced bool) {
	t.requests++
	if out == outFailed {
		t.failed++
		return
	}
	cl := &t.byClass[d.class]
	cl.requests++
	cl.bytes += d.size
	t.bytes += d.size
	if coalesced {
		t.coalesced++
	}
	if out == outHit || out == outPeerHit {
		t.hits++
		t.hitBytes += d.size
		cl.hits++
		cl.hitBytes += d.size
		if out == outPeerHit {
			t.peerHits++
		}
	}
}

// pass is the outcome of one replay of a workload's request list.
type pass struct {
	tally
	wall, cpu time.Duration
	// stolen is the processor time the hypervisor took during the pass.
	stolen time.Duration
	start  time.Time
	// lat[i] and out[i] are request i's latency in nanoseconds and how it
	// was answered. In an open-loop pass latency runs from the time the
	// request was due, and late[i] is how long after that it was sent.
	lat  []int64
	out  []uint8
	late []int64
	// sent[i] is when request i was sent (closed loop) or due (open
	// loop), in nanoseconds after start; recorded only when tracing.
	sent []int64
	// backlogMax is the most requests that were due but unsent at once
	// (open loop only).
	backlogMax int64
}

// generator is the load generator: one goroutine per processor, each with
// its own keep-alive connection to every node, replaying one request list.
type generator struct {
	in    *input
	wires [][]byte // per document
	addrs []string // per node; request i goes to node i mod len(addrs)
	conns [][]*conn
	// tracing makes passes keep send times, from which the traced run
	// builds its client spans.
	tracing bool
}

// newGenerator connects runtime.GOMAXPROCS workers to every address.
func newGenerator(in *input, addrs []string) (*generator, error) {
	g := &generator{in: in, addrs: addrs, wires: make([][]byte, len(in.docs))}
	for i := range in.docs {
		g.wires[i] = wireRequest(in.docs[i].path)
	}
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		var cs []*conn
		for _, a := range addrs {
			c, err := dial(a)
			if err != nil {
				g.close()
				return nil, err
			}
			cs = append(cs, c)
		}
		g.conns = append(g.conns, cs)
	}
	return g, nil
}

func (g *generator) close() {
	for _, cs := range g.conns {
		for _, c := range cs {
			_ = c.c.Close() // nothing is in flight between passes
		}
	}
	g.conns = nil
}

// closedLoop replays the list once: every worker sends its next request
// only after the previous response is complete.
func (g *generator) closedLoop() *pass { return g.run(nil) }

// openLoop replays the first len(due) requests on a schedule: request i
// is due at due[i] nanoseconds after the start, whatever became of the
// requests before it.
func (g *generator) openLoop(due []int64) *pass { return g.run(due) }

func (g *generator) run(due []int64) *pass {
	n := len(g.in.list)
	if due != nil {
		n = len(due)
	}
	p := &pass{lat: make([]int64, n), out: make([]uint8, n)}
	if due != nil {
		p.late = make([]int64, n)
	}
	if g.tracing {
		p.sent = make([]int64, n)
	}
	tallies := make([]tally, len(g.conns))
	backlogs := make([]int64, len(g.conns))
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0, stolen0 := cpuTime(), stolenTime()
	p.start = time.Now()
	deadline := p.start.Add(passTimeout)
	for w := range g.conns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cs, t := g.conns[w], &tallies[w]
			for _, c := range cs {
				// A deadline that cannot be set shows up as the timeout
				// it was meant to bound.
				_ = c.c.SetDeadline(deadline)
			}
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				id := g.in.list[i]
				d := &g.in.docs[id]
				t0 := time.Now()
				if due != nil {
					dueAt := p.start.Add(time.Duration(due[i]))
					if wait := dueAt.Sub(t0); wait > 0 {
						time.Sleep(wait)
					}
					sent := time.Now()
					p.late[i] = int64(sent.Sub(dueAt))
					// Requests due by now, less those already taken.
					behind := int64(sort.Search(n, func(j int) bool { return due[j] > int64(sent.Sub(p.start)) })) - next.Load()
					backlogs[w] = max(backlogs[w], behind)
					t0 = dueAt
				}
				if p.sent != nil {
					p.sent[i] = int64(t0.Sub(p.start))
				}
				c := cs[i%len(cs)]
				out, coalesced, inSync := c.exchange(g.wires[id], d, i%fullCheckEvery == 0)
				p.lat[i] = int64(time.Since(t0))
				p.out[i] = out
				t.count(d, out, coalesced)
				if !inSync {
					if err := c.redial(); err != nil {
						// No connection left to this node: fail the rest
						// of this worker's share rather than hang.
						for {
							j := int(next.Add(1) - 1)
							if j >= n {
								return
							}
							p.out[j] = outFailed
							t.count(&g.in.docs[g.in.list[j]], outFailed, false)
						}
					}
					_ = c.c.SetDeadline(deadline) // as above
				}
			}
		}(w)
	}
	wg.Wait()
	p.wall = time.Since(p.start)
	p.cpu = cpuTime() - cpu0
	p.stolen = stolenTime() - stolen0
	for w := range tallies {
		p.add(&tallies[w])
		p.backlogMax = max(p.backlogMax, backlogs[w])
	}
	return p
}

// latencies returns the pass's latencies in sorted milliseconds,
// restricted to requests answered as want (any answer when want is nil).
func (p *pass) latencies(want func(out uint8) bool) []float64 {
	ns := make([]int64, 0, len(p.lat))
	for i, v := range p.lat {
		if p.out[i] != outFailed && (want == nil || want(p.out[i])) {
			ns = append(ns, v)
		}
	}
	return durationsMs(ns)
}
