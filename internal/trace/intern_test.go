package trace

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

func TestInternerAssignsDenseFirstSeenIDs(t *testing.T) {
	in := NewInterner()
	if in.Len() != 0 {
		t.Fatalf("new interner Len = %d, want 0", in.Len())
	}
	a := in.Intern("http://e.com/a")
	b := in.Intern("http://e.com/b")
	a2 := in.Intern("http://e.com/a")
	c := in.Intern("http://e.com/c")
	if a != 0 || b != 1 || c != 2 {
		t.Errorf("IDs = %d, %d, %d, want dense 0, 1, 2", a, b, c)
	}
	if a2 != a {
		t.Errorf("re-interning returned %d, want %d", a2, a)
	}
	if in.Len() != 3 {
		t.Errorf("Len = %d, want 3", in.Len())
	}
}

func TestInternerKeyInvertsIntern(t *testing.T) {
	in := NewInterner()
	keys := []string{"x", "", "a long key with spaces", "x/y"}
	for _, k := range keys {
		id := in.Intern(k)
		if got := in.Key(id); got != k {
			t.Errorf("Key(Intern(%q)) = %q", k, got)
		}
	}
	table := in.Keys()
	if len(table) != len(keys) {
		t.Fatalf("Keys len = %d, want %d", len(table), len(keys))
	}
	for i, k := range keys {
		if table[i] != k {
			t.Errorf("Keys()[%d] = %q, want %q", i, table[i], k)
		}
	}
}

// TestInternerCopiesItsKeys: a key is usually a field of a decoded log
// block, and the table must not keep that block alive — nor be changed
// through it. Keys longer than an arena chunk and a table that outgrows
// one chunk round-trip too.
func TestInternerCopiesItsKeys(t *testing.T) {
	in := NewInterner()
	block := "982347195.744 110 10.0.0.1 TCP_HIT/200 4512 GET http://e.com/a.gif - NONE/- image/gif"
	url := block[strings.Index(block, "http"):][:18]
	kept := in.Key(in.Intern(url))
	if kept != url {
		t.Fatalf("Key = %q, want %q", kept, url)
	}
	if unsafe.StringData(kept) == unsafe.StringData(url) {
		t.Error("the interner kept the caller's string, and with it the block it is cut from")
	}
	long := strings.Repeat("x", internChunk+1)
	if got := in.Key(in.Intern(long)); got != long {
		t.Error("a key longer than an arena chunk did not round-trip")
	}
	var want []string
	for i := 0; i*40 < 3*internChunk; i++ {
		want = append(want, fmt.Sprintf("http://e.com/%040d", i))
		in.Intern(want[i])
	}
	for i, k := range want {
		if got := in.Key(int32(2 + i)); got != k {
			t.Fatalf("key %d = %q, want %q", i, got, k)
		}
		if id := in.Intern(k); id != int32(2+i) {
			t.Fatalf("re-interning key %d = %d, want %d", i, id, 2+i)
		}
	}
	if kept != url {
		t.Error("later keys overwrote an earlier one")
	}
	if in.Len() != 2+len(want) {
		t.Errorf("re-interning grew the table: Len = %d, want %d", in.Len(), 2+len(want))
	}
}
