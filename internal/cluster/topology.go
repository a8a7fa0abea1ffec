package cluster

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"

	"webcachesim/internal/policy"
	"webcachesim/internal/units"
)

// Topology describes a cache fleet in one JSON file that every component
// consumes: cmd/wcproxy reads it to learn its peers and cache sizing,
// cmd/wcload reads it to drive and reconcile the whole fleet, and
// internal/hierarchy reads it to replay the identical layout offline for
// the sim/live parity check. See docs/CLUSTER.md for the format.
type Topology struct {
	// Replicas is the virtual-node count per peer (DefaultReplicas when
	// omitted, at most MaxReplicas). All consumers of one topology must
	// see the same value or they disagree on ownership — which is why it
	// lives in the file, not in per-process flags.
	Replicas int `json:"replicas,omitempty"`
	// Nodes are the leaf cache peers forming the consistent-hash ring.
	Nodes []Node `json:"nodes"`
	// Parents are optional upper-level caches behind the fleet, nearest
	// first: a fleet miss is forwarded to Parents[0], whose miss goes to
	// Parents[1], and so on to the origin. The live fleet chains them via
	// the proxy's -parent forwarding; the simulator stacks them as
	// hierarchy levels.
	Parents []Node `json:"parents,omitempty"`
}

// Node is one cache process in a Topology.
type Node struct {
	// Name identifies the node on the ring; must be unique within its
	// list. Ring layout is a function of the leaf names, so renaming a
	// node rehomes ~1/N of the documents even if its URL is unchanged.
	Name string `json:"name"`
	// URL is the node's serving address (scheme + host[:port]).
	URL string `json:"url"`
	// Admin is the node's admin address serving /metrics; optional, used
	// by wcload's reconciliation.
	Admin string `json:"admin,omitempty"`
	// Capacity is the node's cache capacity ("64MB", "1GB", plain bytes).
	Capacity string `json:"capacity,omitempty"`
	// Policy is the node's replacement policy spec ("lru", "gdsf",
	// "gdstar:p", ...); "lru" when omitted.
	Policy string `json:"policy,omitempty"`
}

// ParseTopology decodes and validates a topology document.
func ParseTopology(data []byte) (*Topology, error) {
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("cluster: parsing topology: %w", err)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// LoadTopology reads and parses a topology file.
func LoadTopology(path string) (*Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading topology: %w", err)
	}
	t, err := ParseTopology(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", path, err)
	}
	return t, nil
}

func (t *Topology) validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("cluster: topology has no nodes")
	}
	if t.Replicas < 0 || t.Replicas > MaxReplicas {
		return fmt.Errorf("cluster: replicas %d outside [0, %d]", t.Replicas, MaxReplicas)
	}
	seen := make(map[string]bool, len(t.Nodes)+len(t.Parents))
	check := func(kind string, nodes []Node) error {
		for i, n := range nodes {
			if n.Name == "" {
				return fmt.Errorf("cluster: %s[%d] has no name", kind, i)
			}
			if seen[n.Name] {
				return fmt.Errorf("cluster: duplicate node name %q", n.Name)
			}
			seen[n.Name] = true
			if n.URL == "" {
				return fmt.Errorf("cluster: node %q has no url", n.Name)
			}
			if _, err := AbsoluteURL(n.URL); err != nil {
				return fmt.Errorf("cluster: node %q url: %w", n.Name, err)
			}
			if n.Admin != "" {
				if _, err := AbsoluteURL(n.Admin); err != nil {
					return fmt.Errorf("cluster: node %q admin: %w", n.Name, err)
				}
			}
			if n.Capacity != "" {
				if _, err := units.ParseBytes(n.Capacity); err != nil {
					return fmt.Errorf("cluster: node %q capacity: %w", n.Name, err)
				}
			}
			if n.Policy != "" {
				if _, err := policy.ParseSpec(n.Policy); err != nil {
					return fmt.Errorf("cluster: node %q policy: %w", n.Name, err)
				}
			}
		}
		return nil
	}
	if err := check("nodes", t.Nodes); err != nil {
		return err
	}
	return check("parents", t.Parents)
}

// AbsoluteURL parses the URL of an address something dials — a fleet
// node, an admin endpoint, an origin or a parent proxy — and requires it
// to be scheme://host over http(s): "localhost:8080" parses (as scheme
// "localhost") and "n1" parses (as a path), and either would otherwise
// surface per request as "unsupported protocol scheme" while the process
// that took it runs on.
func AbsoluteURL(raw string) (*url.URL, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, err
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("%q is not an absolute http(s) URL", raw)
	}
	return u, nil
}

// Ring builds the topology's consistent-hash ring over the leaf nodes.
func (t *Topology) Ring() (*Ring, error) {
	names := make([]string, len(t.Nodes))
	for i, n := range t.Nodes {
		names[i] = n.Name
	}
	return NewRing(names, t.Replicas)
}

// Node returns the named leaf or parent node, or nil.
func (t *Topology) Node(name string) *Node {
	for i := range t.Nodes {
		if t.Nodes[i].Name == name {
			return &t.Nodes[i]
		}
	}
	for i := range t.Parents {
		if t.Parents[i].Name == name {
			return &t.Parents[i]
		}
	}
	return nil
}

// PeerURLs returns the serving URLs of every leaf except self, keyed by
// node name — the map the proxy's cluster config wants. self must be a
// leaf node's name.
func (t *Topology) PeerURLs(self string) (map[string]*url.URL, error) {
	found := false
	peers := make(map[string]*url.URL, len(t.Nodes)-1)
	for _, n := range t.Nodes {
		if n.Name == self {
			found = true
			continue
		}
		u, err := url.Parse(n.URL)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %q url: %w", n.Name, err)
		}
		peers[n.Name] = u
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not a node in the topology", self)
	}
	return peers, nil
}

// CapacityBytes parses the node's capacity, or returns def when unset.
func (n *Node) CapacityBytes(def int64) (int64, error) {
	if n.Capacity == "" {
		return def, nil
	}
	return units.ParseBytes(n.Capacity)
}

// PolicyFactory builds the node's eviction-policy factory ("lru" when
// unset).
func (n *Node) PolicyFactory() (policy.Factory, error) {
	if n.Policy == "" {
		return policy.NewFactory(policy.Spec{Scheme: "lru"})
	}
	spec, err := policy.ParseSpec(n.Policy)
	if err != nil {
		return policy.Factory{}, err
	}
	return policy.NewFactory(spec)
}
