package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// compressBlocks compresses data through a gzipWriter, in chunks whose
// lengths cuts gives in turn and the rest in one Write.
func compressBlocks(t *testing.T, data, cuts []byte, workers, blockSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	gw := newGzipWriter(&buf, workers, blockSize)
	for _, c := range cuts {
		n := min(int(c), len(data))
		if _, err := gw.Write(data[:n]); err != nil {
			t.Fatal(err)
		}
		data = data[n:]
	}
	if len(data) > 0 {
		if _, err := gw.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gunzip(t *testing.T, file []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzGzipWriter: any bytes, written in any chunks (none included), read
// back exactly through gzip.NewReader, and the file is the same bytes
// whether one worker or four compressed it and however it was chunked.
func FuzzGzipWriter(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add([]byte{}, []byte{0, 0}, uint8(3))
	f.Add([]byte("982347195.744   110 10.0.0.1 TCP_HIT/200 4512 GET http://e.com/a.gif - NONE/- image/gif\n"), []byte{3, 0, 40}, uint8(16))
	f.Add(bytes.Repeat([]byte{0xff, 0}, 300), []byte{255, 1, 7}, uint8(255))
	f.Fuzz(func(t *testing.T, data, cuts []byte, block uint8) {
		blockSize := 1 + int(block)
		one := compressBlocks(t, data, cuts, 1, blockSize)
		if four := compressBlocks(t, data, nil, 4, blockSize); !bytes.Equal(one, four) {
			t.Fatalf("1 worker wrote %d bytes, 4 workers %d different ones", len(one), len(four))
		}
		if got := gunzip(t, one); !bytes.Equal(got, data) {
			t.Fatalf("read back %d bytes, wrote %d", len(got), len(data))
		}
	})
}

// TestGzipWriterMembers pins the layout at the real block size: one member
// per 256 KiB of input, each a complete gzip stream of its own.
func TestGzipWriterMembers(t *testing.T) {
	data := bytes.Repeat([]byte("982347195.744   110 10.0.0.1 TCP_HIT/200 4512 GET http://e.com/a.gif - NONE/- image/gif\n"), 8000)
	file := bytes.NewReader(compressBlocks(t, data, nil, 2, gzipBlockSize))
	zr, err := gzip.NewReader(file)
	if err != nil {
		t.Fatal(err)
	}
	var members int
	for {
		zr.Multistream(false)
		n, err := io.Copy(io.Discard, zr)
		if err != nil {
			t.Fatal(err)
		}
		if members++; n != int64(min(gzipBlockSize, len(data)-(members-1)*gzipBlockSize)) {
			t.Errorf("member %d holds %d bytes", members, n)
		}
		if err := zr.Reset(file); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if want := (len(data) + gzipBlockSize - 1) / gzipBlockSize; members != want {
		t.Errorf("%d members, want %d", members, want)
	}
}

// TestGzipWriterRecyclesBlocks: past the first depth+2 blocks a block
// costs no allocation, the compressor's included.
func TestGzipWriterRecyclesBlocks(t *testing.T) {
	const blockSize = 4096
	gw := newGzipWriter(io.Discard, 2, blockSize)
	block := bytes.Repeat([]byte("0123456789abcdef"), blockSize/16)
	for range 16 {
		if _, err := gw.Write(block); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { _, _ = gw.Write(block) }); allocs > 0.1 {
		t.Errorf("%.2f allocations per block", allocs)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errFull = errors.New("full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, errFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestGzipWriterReportsWriteError: once dst fails, Write reports it before
// taking more and Close reports it again.
func TestGzipWriterReportsWriteError(t *testing.T) {
	gw := newGzipWriter(&failAfter{n: 100}, 2, 64)
	block := bytes.Repeat([]byte{'x'}, 64)
	var err error
	for i := 0; i < 10_000 && err == nil; i++ {
		_, err = gw.Write(block)
	}
	if !errors.Is(err, errFull) {
		t.Errorf("Write: %v, want %v", err, errFull)
	}
	if n, err := gw.Write(block); n != 0 || !errors.Is(err, errFull) {
		t.Errorf("Write after the failure: %d, %v", n, err)
	}
	if err := gw.Close(); !errors.Is(err, errFull) {
		t.Errorf("Close: %v, want %v", err, errFull)
	}
}

// TestFileWriterCloseReleasesOnError writes into /dev/full: Close must
// report ENOSPC and still close the file and stop every goroutine, with
// and without gzip.
func TestFileWriterCloseReleasesOnError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	for _, name := range []string{"full.log", "full.log.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			if err := os.Symlink("/dev/full", path); err != nil {
				t.Skip(err)
			}
			before := runtime.NumGoroutine()
			fw, err := CreateFile(path, FormatAuto)
			if err != nil {
				t.Fatal(err)
			}
			f := fw.closers[0].(*os.File)
			for _, r := range sampleRequests() {
				if err := fw.Write(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := fw.Close(); !errors.Is(err, syscall.ENOSPC) {
				t.Errorf("Close: %v, want ENOSPC", err)
			}
			if _, err := f.Stat(); !errors.Is(err, os.ErrClosed) {
				t.Errorf("file still open after Close (Stat: %v)", err)
			}
			// The goroutines have called Done; give them the moment to return.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("goroutines: %d before CreateFile, %d after Close", before, after)
			}
		})
	}
}

// TestGzipTraceMatchesPlain: a trace written as .log.gz decompresses to
// the .log's bytes.
func TestGzipTraceMatchesPlain(t *testing.T) {
	dir := t.TempDir()
	var reqs []*Request
	for i := 0; i < 20_000; i++ {
		for _, r := range sampleRequests() {
			r.UnixMillis += int64(i) * 1000
			r.URL += "?" + strings.Repeat("q", i%7)
			reqs = append(reqs, r)
		}
	}
	files := map[string][]byte{}
	for _, name := range []string{"t.log", "t.log.gz"} {
		fw, err := CreateFile(filepath.Join(dir, name), FormatAuto)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			if err := fw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		if files[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	if len(files["t.log"]) <= gzipBlockSize {
		t.Fatalf("trace of %d bytes fits one member", len(files["t.log"]))
	}
	if got := gunzip(t, files["t.log.gz"]); !bytes.Equal(got, files["t.log"]) {
		t.Errorf(".log.gz decompresses to %d bytes, .log holds %d others", len(got), len(files["t.log"]))
	}
}
