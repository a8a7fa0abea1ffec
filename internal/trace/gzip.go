package trace

import (
	"bytes"
	"compress/gzip"
	"io"
	"sync"
)

// gzipBlockSize is how much of the stream one gzip member holds; a member
// costs a header, a trailer and a cold dictionary, ~1 % of a Squid log.
const gzipBlockSize = 256 << 10

// gzipLevel is the deflate level of every member. On a 300k-request DFN
// Squid log (31.1 MB, one core, Go 1.24 compress/flate) level 3 deflates
// in 0.27 s to 11.8 % against level 6's 0.52 s and 11.1 %, and inflates
// in 0.117 s against 0.106 s; levels 1-2 save under 0.04 s more, and
// level 1 inflates 10 % slower still. docs/TRACES.md has the table.
const gzipLevel = 3

// gzipWriter compresses on every core, the mirror of SquidReader.runAhead.
// Write cuts the stream every blockSize bytes and queues each block for a
// fixed set of workers, which turn it into a complete gzip member; the
// members go to dst in stream order from the caller's goroutine, the oldest
// whenever depth = 2·workers are queued. The file is a multi-member gzip
// stream (RFC 1952 §2.2) that gzip.NewReader, gunzip and zcat read as one,
// and since a member depends only on its block, its bytes do not depend on
// the number of workers. A written block is the next one filled: at most
// depth+1 exist.
type gzipWriter struct {
	dst       io.Writer
	blockSize int
	cur       *gzipBlock      // the block Write fills; nil once closed
	queue     chan *gzipBlock // the sent blocks, oldest first, at most depth
	jobs      chan *gzipBlock // the same blocks, for the workers
	wg        sync.WaitGroup
	err       error // the first dst error; no member is written after it
}

// gzipBlock is a stretch of the stream and, once done fires, its member.
type gzipBlock struct {
	in   []byte
	out  bytes.Buffer
	done chan struct{}
}

func newGzipBlock(size int) *gzipBlock {
	return &gzipBlock{in: make([]byte, 0, size), done: make(chan struct{}, 1)}
}

// newGzipWriter starts workers compressors; Close stops them.
func newGzipWriter(dst io.Writer, workers, blockSize int) *gzipWriter {
	gw := &gzipWriter{
		dst:       dst,
		blockSize: blockSize,
		cur:       newGzipBlock(blockSize),
		queue:     make(chan *gzipBlock, 2*workers),
		jobs:      make(chan *gzipBlock, 2*workers),
	}
	gw.wg.Add(workers)
	for range workers {
		go gw.compress()
	}
	return gw
}

// Write copies p into blocks, sending each full one once more bytes
// follow. It stops at the first dst error and returns it.
func (gw *gzipWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 && gw.err == nil {
		if len(gw.cur.in) == gw.blockSize {
			if gw.cur = gw.send(); gw.cur == nil {
				gw.cur = newGzipBlock(gw.blockSize)
			}
		}
		k := copy(gw.cur.in[len(gw.cur.in):gw.blockSize], p)
		gw.cur.in, p = gw.cur.in[:len(gw.cur.in)+k], p[k:]
	}
	return n - len(p), gw.err
}

// Close sends the last block (an empty stream is one empty member, as
// from gzip.Writer), writes every member, stops the workers and returns
// the first dst error.
func (gw *gzipWriter) Close() error {
	if gw.cur != nil {
		gw.send()
		gw.cur = nil
		close(gw.queue)
		close(gw.jobs)
		for b := range gw.queue {
			gw.write(b)
		}
		gw.wg.Wait()
	}
	return gw.err
}

// send queues cur for the workers. With depth queued it first writes the
// oldest member and returns that block for reuse; otherwise nil.
func (gw *gzipWriter) send() (free *gzipBlock) {
	if len(gw.queue) == cap(gw.queue) {
		free = gw.write(<-gw.queue)
	}
	gw.queue <- gw.cur
	gw.jobs <- gw.cur // holds only queued blocks: never blocks
	return free
}

// write waits for b's member, writes it unless dst failed, and empties b.
func (gw *gzipWriter) write(b *gzipBlock) *gzipBlock {
	<-b.done
	if gw.err == nil {
		_, gw.err = gw.dst.Write(b.out.Bytes())
	}
	b.in = b.in[:0]
	b.out.Reset()
	return b
}

// compress turns blocks into members with one gzip.Writer at gzipLevel,
// reset for each; its compressor is allocated at the first block.
func (gw *gzipWriter) compress() {
	defer gw.wg.Done()
	// gzipLevel is a valid level, so NewWriterLevel cannot fail.
	zw, _ := gzip.NewWriterLevel(nil, gzipLevel)
	for b := range gw.jobs {
		zw.Reset(&b.out)
		// Writing into a bytes.Buffer cannot fail.
		_, _ = zw.Write(b.in)
		_ = zw.Close() // same: only flushes into the buffer
		b.done <- struct{}{}
	}
}
