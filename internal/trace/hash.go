package trace

// Hash64 returns a 64-bit hash of s with strong mixing in the high bits,
// which ring and shard placement compare against the full 64-bit range.
// The function is FNV-1a followed by a splitmix64 finalizer (FNV-1a alone
// mixes its low bits well but its high bits poorly). The hash is
// deterministic and stable across processes — a document lands on the
// same shard and fleet node in every run — and must not be changed
// without re-recording the placement-dependent results. A []byte key
// hashes like the string of the same bytes, so hot paths that assemble
// keys in reusable buffers (the proxy's request-key scratch) hash without
// the conversion, which would allocate on every request.
func Hash64[K string | []byte](s K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
