//go:build !linux || race

package pool

// returnsPages is false where the stdlib has no madvise (every unix but
// Linux, and !unix), and under the race detector, whose chunks are Go
// heap: an idle slot keeps its pages, as it did before Linux returned them.
const returnsPages = false

func returnPages([]byte) bool { return false }
