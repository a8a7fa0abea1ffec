package cluster

import (
	"fmt"
	"math/rand"
	"net/url"
	"testing"
)

// names returns n deterministic node names node0..node{n-1}.
func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node%d", i)
	}
	return out
}

// keys returns a deterministic corpus of routing keys shaped like real
// trace paths.
func keys(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	exts := []string{".html", ".gif", ".jpg", ".mpg", ".pdf", ".cgi", ""}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("/dir%d/doc%d%s", rng.Intn(40), i, exts[rng.Intn(len(exts))])
	}
	return out
}

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty node set: want error")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Fatal("empty node name: want error")
	}
	if _, err := NewRing([]string{"a", "b", "a"}, 0); err == nil {
		t.Fatal("duplicate node name: want error")
	}
}

// TestRingDeterministic pins rebalance determinism: the same node set in
// any order builds the identical layout, and routing is stable across
// independently constructed rings (as it must be — every fleet member
// and every client builds its own).
func TestRingDeterministic(t *testing.T) {
	a, err := NewRing([]string{"n1", "n2", "n3"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"n3", "n1", "n2"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(5000, 1) {
		if got, want := b.Owner(k), a.Owner(k); got != want {
			t.Fatalf("Owner(%q) differs across identical rings: %q vs %q", k, got, want)
		}
	}
}

// TestRingBalance checks virtual nodes spread load roughly evenly: with
// DefaultReplicas every node's share of a large key corpus stays within
// 2x of fair.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		r, err := NewRing(names(n), DefaultReplicas)
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[string]int, n)
		corpus := keys(20000, 42)
		for _, k := range corpus {
			counts[r.Owner(k)]++
		}
		fair := float64(len(corpus)) / float64(n)
		for node, c := range counts {
			if float64(c) < fair/2 || float64(c) > fair*2 {
				t.Errorf("N=%d: node %s owns %d keys, fair share %.0f", n, node, c, fair)
			}
		}
		if len(counts) != n {
			t.Errorf("N=%d: only %d nodes own keys", n, len(counts))
		}
	}
}

// TestRingRemapFraction is the consistent-hashing property: growing an
// N-node ring by one node remaps roughly 1/(N+1) of the keys, and every
// remapped key moves TO the new node — no key migrates between two
// surviving nodes. Shrinking is the mirror image. Table over N∈{2,3,8},
// fixed seeds.
func TestRingRemapFraction(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			small, err := NewRing(names(n), DefaultReplicas)
			if err != nil {
				t.Fatal(err)
			}
			grown, err := NewRing(append(names(n), "extra"), DefaultReplicas)
			if err != nil {
				t.Fatal(err)
			}
			corpus := keys(20000, int64(100+n))
			moved := 0
			for _, k := range corpus {
				before, after := small.Owner(k), grown.Owner(k)
				if before == after {
					continue
				}
				moved++
				if after != "extra" {
					t.Fatalf("key %q moved %s→%s, not to the new node", k, before, after)
				}
			}
			frac := float64(moved) / float64(len(corpus))
			want := 1 / float64(n+1)
			// Generous bounds: virtual-node variance is real, but the
			// fraction must be in the right regime — far below "rehash
			// everything" (which would remap ~n/(n+1)).
			if frac < want/2 || frac > want*2 {
				t.Errorf("N=%d→%d remapped %.3f of keys, want ≈%.3f", n, n+1, frac, want)
			}
			// Shrink back: removing "extra" must restore the original
			// assignment exactly (the layout is a pure function of the
			// membership set).
			shrunk, err := NewRing(names(n), DefaultReplicas)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range corpus {
				if shrunk.Owner(k) != small.Owner(k) {
					t.Fatalf("shrink did not restore assignment for %q", k)
				}
			}
		})
	}
}

func TestRingAccessors(t *testing.T) {
	r, err := NewRing([]string{"b", "a"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Nodes(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Nodes() = %v, want sorted [a b]", got)
	}
	if r.Len() != 2 {
		t.Fatalf("Len() = %d", r.Len())
	}
	if r.Replicas() != DefaultReplicas {
		t.Fatalf("Replicas() = %d, want default %d", r.Replicas(), DefaultReplicas)
	}
}

// TestRouteKey pins the canonical routing-key contract: the same document
// yields the same key whether it arrives as a trace's absolute URL, a
// proxy's rewritten absolute URL (different host/port), or a parsed
// request URL.
func TestRouteKey(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://origin.example/a/b.html", "/a/b.html"},
		{"http://127.0.0.1:49152/a/b.html", "/a/b.html"},
		{"https://origin.example:8080/a/b.html?x=1", "/a/b.html?x=1"},
		{"http://origin.example", "/"},
		{"/plain/path.gif", "/plain/path.gif"},
		{"", "/"},
	}
	for _, c := range cases {
		if got := RouteKey(c.in); got != c.want {
			t.Errorf("RouteKey(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	for _, c := range cases {
		if c.in == "" || c.in[0] == '/' {
			continue
		}
		u, err := url.Parse(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if got := RouteKeyURL(u); got != c.want {
			t.Errorf("RouteKeyURL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
