//go:build !unix || race

package pool

import "errors"

// errNoMmap makes carve take its chunks from make: the platform's stdlib
// has no mapping call, or the race detector is on — it ignores addresses
// outside the Go heap, so mapped bodies would lose their race coverage.
var errNoMmap = errors.New("pool: chunks come from the Go heap in this build")

func mapChunk(int) ([]byte, error) { return nil, errNoMmap }

func unmapChunk([]byte) {}
