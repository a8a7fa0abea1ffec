// Package sketch provides the probabilistic data structures of the
// admission layer: a Bloom filter (the TinyLFU doorkeeper) and
// space-saving heavy-hitter counting (the TinyLFU frequency table), which
// give admission.TinyLFU O(1)-memory frequency estimates.
package sketch

import (
	"fmt"
	"math"
)

// Bloom is a Bloom filter over string keys. The TinyLFU admission filter
// uses it as the "doorkeeper" that absorbs one-hit wonders before they
// reach the heavy-hitter table. False positives make a repeated key look
// new with probability ≈ the configured rate; there are no false
// negatives.
type Bloom struct {
	bits   []uint64
	mask   uint64
	hashes int
}

// NewBloom sizes a filter for the expected number of items at the target
// false-positive rate.
func NewBloom(expectedItems int64, falsePositiveRate float64) (*Bloom, error) {
	if expectedItems <= 0 {
		return nil, fmt.Errorf("sketch: bloom expected items %d must be positive", expectedItems)
	}
	if falsePositiveRate <= 0 || falsePositiveRate >= 1 {
		return nil, fmt.Errorf("sketch: bloom fp rate %v out of (0, 1)", falsePositiveRate)
	}
	// Optimal bits: m = -n ln p / (ln 2)^2, rounded up to a power of two
	// so indexing is a mask.
	mBits := float64(expectedItems) * -math.Log(falsePositiveRate) / (math.Ln2 * math.Ln2)
	words := uint64(1)
	for float64(words*64) < mBits {
		words <<= 1
	}
	k := int(math.Round(float64(words*64) / float64(expectedItems) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Bloom{
		bits:   make([]uint64, words),
		mask:   words*64 - 1,
		hashes: k,
	}, nil
}

// Add inserts a key.
func (b *Bloom) Add(key string) {
	h1, h2 := b.twoHashes(key)
	for i := 0; i < b.hashes; i++ {
		pos := (h1 + uint64(i)*h2) & b.mask
		b.bits[pos>>6] |= 1 << (pos & 63)
	}
}

// Contains reports whether key may have been added (false positives
// possible, false negatives not).
func (b *Bloom) Contains(key string) bool {
	h1, h2 := b.twoHashes(key)
	for i := 0; i < b.hashes; i++ {
		pos := (h1 + uint64(i)*h2) & b.mask
		if b.bits[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
	}
	return true
}

// AddIfNew inserts key and reports whether it was (probably) absent — the
// one-pass first-occurrence test.
func (b *Bloom) AddIfNew(key string) bool {
	if b.Contains(key) {
		return false
	}
	b.Add(key)
	return true
}

// Reset clears every bit, keeping the sizing. The
// TinyLFU admission filter calls it at each aging window so stale
// first-occurrence evidence does not accumulate forever.
func (b *Bloom) Reset() {
	clear(b.bits)
}

// twoHashes derives the double-hashing pair from one 64-bit hash.
func (b *Bloom) twoHashes(key string) (uint64, uint64) {
	h := hash64str(key)
	h1 := h
	h2 := mix64(h ^ 0x9e3779b97f4a7c15)
	h2 |= 1 // h2 must be odd so the probe sequence covers the table
	return h1, h2
}

// hash64str is the 64-bit FNV-1a hash, finalized with a strong mixer so
// sequential keys spread across the filter.
func hash64str(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
