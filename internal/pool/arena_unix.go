//go:build unix && !race

package pool

import (
	"sync/atomic"
	"syscall"
)

// mappedBytes is what the package's pools hold mapped right now, all
// together; the lifetime tests watch it return to its baseline.
var mappedBytes atomic.Int64

// mapChunk takes n zeroed bytes from the OS that the garbage collector
// does not know about: anonymous, private, resident only once touched.
func mapChunk(n int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err == nil {
		mappedBytes.Add(int64(n))
	}
	return b, err
}

func unmapChunk(b []byte) {
	if syscall.Munmap(b) == nil {
		mappedBytes.Add(-int64(len(b)))
	}
}
