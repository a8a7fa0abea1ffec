package proxy

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"webcachesim/internal/cluster"
)

// DefaultPeerTimeout bounds one peer fetch (round trip plus body read).
// Peers are siblings on the same network, so the bound is much tighter
// than the origin fetch timeout: a peer slower than this is treated as
// down and the miss falls through to the origin.
const DefaultPeerTimeout = 5 * time.Second

// PeerHeader is the loop-guard request header a proxy sets when fetching
// from a sibling. A request carrying it is served locally — never
// re-routed — so fleet members whose topology files disagree bounce a
// request at most once, and the value (the requesting node's
// name) makes peer traffic attributable in access logs.
const PeerHeader = "X-Wc-Peer"

// ClusterConfig makes the proxy a member of a consistent-hash fleet: doc
// IDs are partitioned across nodes by ring position, and a local miss on
// a document another node owns consults that sibling before the origin.
// Clustering requires reverse mode (Config.Origin set): the fleet's
// cache keys must agree, and only reverse mode gives every node the same
// origin-anchored key for a given path.
type ClusterConfig struct {
	// Self is this node's name on the ring; required, and must not appear
	// in Peers.
	Self string
	// Peers maps every *other* fleet member's name to its serving URL;
	// required, non-empty.
	Peers map[string]*url.URL
	// Replicas is the virtual-node count per ring member
	// (cluster.DefaultReplicas when 0). Every fleet member must use the
	// same value or they disagree on ownership.
	Replicas int
	// PeerTimeout bounds one peer fetch (DefaultPeerTimeout when 0).
	PeerTimeout time.Duration
	// Transport performs peer fetches; http.DefaultTransport when nil.
	// Deliberately separate from Config.Transport: that one may lead
	// origin fetches through a parent proxy, but peer fetches must go
	// straight to the sibling.
	Transport http.RoundTripper
}

// clusterState is the routing view, built once in New: membership is
// fixed when the proxy starts, so the serving path reads it with no
// atomic load and no lock.
type clusterState struct {
	self  string
	ring  *cluster.Ring
	peers map[string]*url.URL
}

// buildClusterState validates a ClusterConfig and compiles its ring.
func buildClusterState(cc ClusterConfig) (*clusterState, error) {
	if cc.Self == "" {
		return nil, fmt.Errorf("proxy: cluster Self is required")
	}
	if len(cc.Peers) == 0 {
		return nil, fmt.Errorf("proxy: cluster has no peers")
	}
	if _, ok := cc.Peers[cc.Self]; ok {
		return nil, fmt.Errorf("proxy: cluster Self %q also listed in Peers", cc.Self)
	}
	names := make([]string, 0, len(cc.Peers)+1)
	names = append(names, cc.Self)
	for name, u := range cc.Peers {
		if u == nil {
			return nil, fmt.Errorf("proxy: cluster peer %q has nil URL", name)
		}
		names = append(names, name)
	}
	ring, err := cluster.NewRing(names, cc.Replicas)
	if err != nil {
		return nil, fmt.Errorf("proxy: %w", err)
	}
	peers := make(map[string]*url.URL, len(cc.Peers))
	for name, u := range cc.Peers {
		peers[name] = u
	}
	return &clusterState{self: cc.Self, ring: ring, peers: peers}, nil
}

// fetchPeer performs one fetch from the owning sibling. The peer's
// response is authoritative only when it carries an X-Cache header —
// every response the peer's write stage produces does, while its error
// answers (bad gateway, method rejections) do not — so any response
// without one counts as a peer error and sends the caller to the origin.
// The body is materialized exactly like an origin response but is never
// inserted into the local store: the owner caches, the requester serves —
// that owner-only storage rule is what makes the fleet behave as one
// partitioned cache (and what the sim/live parity harness relies on).
func (s *Server) fetchPeer(key string, target, peer *url.URL, self string, hdr http.Header) (*fetchResult, error) {
	s.metrics.peerFetches.Inc()
	u := *peer
	u.Path = target.Path
	u.RawPath = target.RawPath
	u.RawQuery = target.RawQuery
	resp, cancel, err := s.roundTrip(s.peerTransport, s.peerTimeout, u.String(), hdr, self)
	if err == nil && resp.Header.Get("X-Cache") == "" {
		// Not a proxy-served answer: the peer is up but failing (its own
		// upstream is down, or the request died inside it). Drain a little
		// so the connection can be reused, then fall back to the origin.
		_, _ = io.CopyN(io.Discard, resp.Body, 4<<10)
		_ = resp.Body.Close() // best-effort: the fetch already failed
		cancel()
		err = fmt.Errorf("proxy: peer answered %d without X-Cache", resp.StatusCode)
	}
	var fr *fetchResult
	if err == nil {
		fr, err = s.readResponse(key, resp, cancel)
	}
	if err != nil {
		s.metrics.peerErrors.Inc()
		return nil, err
	}
	// An oversize body streams through uncached exactly as from the
	// origin, and is never a peer hit: the owner does not cache it either.
	fr.peerHit = !fr.oversize && resp.Header.Get("X-Cache") == "HIT"
	return fr, nil
}
