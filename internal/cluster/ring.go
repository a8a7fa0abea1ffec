// Package cluster turns the single caching proxy into a horizontally
// scalable fleet: documents are assigned to peer nodes by consistent
// hashing, so every node in the cluster — and every client driving it —
// agrees on which node owns which document without any coordination.
//
// The package holds the pieces both sides of the sim/live parity story
// share: the hash ring (Ring), the canonical routing key every component
// derives from a URL (RouteKey), and the topology file format
// (Topology) that cmd/wcproxy serves live, cmd/wcload drives, and
// internal/hierarchy replays offline. Keeping them in one place is what
// makes the parity harness honest — the simulator and the fleet route
// with literally the same code. See docs/CLUSTER.md.
package cluster

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"webcachesim/internal/trace"
)

// DefaultReplicas is the number of virtual nodes each peer contributes to
// the ring when the topology does not say otherwise. 128 points per node
// keeps the expected per-node load share within a few percent of 1/N
// while the ring stays small enough to rebuild on every membership
// change.
const DefaultReplicas = 128

// MaxReplicas bounds the virtual-node count a topology may ask for. The
// load share stops improving long before it, and a ring of N nodes holds
// N×replicas points, so an unbounded value is an allocation (or a
// makeslice panic) at startup rather than a better spread.
const MaxReplicas = 1 << 12

// Ring is an immutable consistent-hash ring over a set of named nodes.
// Each node contributes Replicas virtual points; a key is owned by the
// node whose point follows the key's hash clockwise. The layout is a pure
// function of the node names and the replica count — trace.Hash64 is
// stable across processes — so every builder of the same ring routes
// identically, which the routing contract (and the rebalance-determinism
// test) pins.
//
// A Ring is never mutated after New: membership changes build a new Ring
// and swap it in atomically (see proxy.Server.UpdateCluster).
type Ring struct {
	points   []ringPoint
	nodes    []string // sorted unique node names
	replicas int
}

// ringPoint is one virtual node: a position on the hash circle and the
// index of the owning node in Ring.nodes.
type ringPoint struct {
	hash uint64
	node int32
}

// NewRing builds a ring from the given node names. Names must be
// non-empty and unique; order does not matter (the layout is derived from
// the sorted set). replicas is the number of virtual points per node
// (DefaultReplicas when <= 0).
func NewRing(nodes []string, replicas int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n)
		}
	}
	r := &Ring{
		points:   make([]ringPoint, 0, len(sorted)*replicas),
		nodes:    sorted,
		replicas: replicas,
	}
	for ni, name := range sorted {
		for v := 0; v < replicas; v++ {
			h := trace.Hash64(name + "#" + strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, node: int32(ni)})
		}
	}
	// Sort by position; break hash collisions by node index (node names
	// are sorted, so the tie-break is as deterministic as the layout).
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Owner returns the node that owns key. The key should be the canonical
// routing key (see RouteKey); hashing anything else still works but
// breaks the cross-component agreement the routing contract promises.
func (r *Ring) Owner(key string) string {
	return r.nodes[r.ownerIndex(trace.Hash64(key))]
}

// ownerIndex finds the first virtual point at or after h, wrapping to the
// ring's start past the last point.
func (r *Ring) ownerIndex(h uint64) int32 {
	pts := r.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= h })
	if i == len(pts) {
		i = 0
	}
	return pts[i].node
}

// Nodes returns the ring's node names in sorted order. The slice is a
// copy.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Len returns the number of nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Replicas returns the virtual-point count per node.
func (r *Ring) Replicas() int { return r.replicas }

// RouteKey extracts the canonical routing key from an absolute URL or a
// path: the escaped path plus, when present, "?" and the raw query. All
// routing decisions — the proxy picking a peer, wcload predicting an
// owner, the hierarchy simulator replaying offline — hash exactly this
// form, so a document has one owner no matter which component asks.
//
// The scheme and host are deliberately excluded: the live fleet keys its
// caches on absolute URLs that embed ephemeral loopback ports, while
// traces record the origin's real host; the path is the part both sides
// share.
func RouteKey(s string) string {
	if i := strings.Index(s, "://"); i >= 0 {
		rest := s[i+3:]
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			return rest[j:]
		}
		return "/"
	}
	if s == "" {
		return "/"
	}
	return s
}

// RouteKeyURL is RouteKey for a parsed URL, built from the same escaped
// path + raw query form RouteKey slices out of an absolute URL string.
func RouteKeyURL(u *url.URL) string {
	p := u.EscapedPath()
	if p == "" {
		p = "/"
	}
	if u.RawQuery != "" {
		return p + "?" + u.RawQuery
	}
	return p
}
