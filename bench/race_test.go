//go:build race

package main

// raceEnabled reports that the race detector is on. It makes sync.Pool
// drop items at random, so the zero-allocation claim of the handler's hit
// path cannot be checked under it.
const raceEnabled = true
