//go:build linux && !race

package pool

import "syscall"

// returnsPages says Release gives a large slot's pages back to the OS.
const returnsPages = true

// returnPages drops b's pages: they stop counting as resident, and the
// next write to one faults in a zeroed page. b must be whole pages, which
// carve makes every large slot.
func returnPages(b []byte) bool {
	return syscall.Madvise(b, syscall.MADV_DONTNEED) == nil
}
