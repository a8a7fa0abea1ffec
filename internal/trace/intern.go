package trace

import "strings"

// Interner assigns dense int32 identifiers to document URLs (and any other
// repeated string domain, such as clients or methods). IDs are allocated in
// first-seen order starting from zero, so an Interner doubles as the
// string table of the interned workload and binary formats: Key(id) is the
// inverse of Intern(key) and the table is reproducible from the stream.
//
// The zero value is not ready for use; call NewInterner.
type Interner struct {
	ids   map[string]int32
	keys  []string
	arena strings.Builder // backs the table's copies of the keys, a chunk at a time
}

const internChunk = 64 << 10 // bytes in an arena chunk

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]int32)}
}

// Intern returns the dense ID for key, assigning the next free ID on first
// sight. The table keeps a copy of a new key, so interning a substring —
// a field of a decoded log block — does not keep the whole string alive.
func (in *Interner) Intern(key string) int32 {
	if id, ok := in.ids[key]; ok {
		return id
	}
	// A Builder never rewrites what it has handed out: substrings of String()
	// stay valid while later keys are appended behind them.
	if in.arena.Cap()-in.arena.Len() < len(key) {
		in.arena.Reset()
		in.arena.Grow(max(len(key), internChunk))
	}
	start := in.arena.Len()
	_, _ = in.arena.WriteString(key) // a Builder's writes never fail
	key = in.arena.String()[start:]
	id := int32(len(in.keys))
	in.ids[key] = id
	in.keys = append(in.keys, key)
	return id
}

// Key returns the string for a previously assigned ID. It panics on an ID
// that was never assigned, matching slice-bounds semantics.
func (in *Interner) Key(id int32) string { return in.keys[id] }

// Len returns the number of distinct keys interned so far.
func (in *Interner) Len() int { return len(in.keys) }

// Keys returns the backing table in ID order. The caller must not modify
// the returned slice; it is shared with the interner.
func (in *Interner) Keys() []string { return in.keys }
