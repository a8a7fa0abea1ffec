// Package hierarchy simulates a tree of caching proxies — a
// consistent-hash fleet under a chain of parents, where a plain chain is a
// fleet of one node: requests enter the leaves, and each level's misses
// form the request stream of the level above — exactly how the paper's
// traces came to be: both DFN and RTP were recorded at *upper-level*
// proxies in core networks, so their streams had already been filtered by
// lower-level caches. Filtering removes short-distance re-references and
// flattens the popularity distribution, which is why §2 measures small α
// values and why GD*'s frequency signal degrades on RTP; this package lets
// that mechanism be reproduced rather than assumed (see the filtering
// tests and `wcreport -extras -exp filtering`).
package hierarchy

import (
	"errors"
	"fmt"
	"io"

	"webcachesim/internal/cluster"
	"webcachesim/internal/core"
	"webcachesim/internal/trace"
)

// Cluster simulates a consistent-hash cache fleet offline — the
// internal/cluster topology that cmd/wcproxy serves live, replayed
// through the simulator core. Each leaf node runs its own simulator and
// sees exactly the substream the ring routes to it; misses from every
// leaf merge (in arrival order) into the request stream of the first
// parent level, whose misses feed the next, ending at the origin. This
// is the sim half of the sim/live parity harness: with the fleet's
// concurrency pinned down (sequential replay, one shard, no admission),
// its per-node hit counts must match this simulation exactly.
type Cluster struct {
	ring        *cluster.Ring
	index       map[string]int // leaf name → nodes slice position
	names       []string
	nodes       []*core.StreamSimulator
	parentNames []string
	parents     []*core.StreamSimulator
}

// NewCluster builds the offline twin of a live fleet from its topology
// file. Every node needs an explicit capacity — the simulator has no
// flag defaults to fall back on. A document counts as modified under
// the paper's 5% rule, as in core.BuildWorkload.
func NewCluster(topo *cluster.Topology) (*Cluster, error) {
	if topo == nil {
		return nil, errors.New("hierarchy: nil topology")
	}
	ring, err := topo.Ring()
	if err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	c := &Cluster{ring: ring, index: make(map[string]int, len(topo.Nodes))}
	build := func(n *cluster.Node) (*core.StreamSimulator, error) {
		capBytes, err := n.CapacityBytes(0)
		if err != nil {
			return nil, fmt.Errorf("hierarchy: %q: %w", n.Name, err)
		}
		if capBytes <= 0 {
			return nil, fmt.Errorf("hierarchy: %q needs an explicit capacity to simulate", n.Name)
		}
		factory, err := n.PolicyFactory()
		if err != nil {
			return nil, fmt.Errorf("hierarchy: %q: %w", n.Name, err)
		}
		sim, err := core.NewStreamSimulator(core.Config{Capacity: capBytes, Policy: factory}, 0)
		if err != nil {
			return nil, fmt.Errorf("hierarchy: %q: %w", n.Name, err)
		}
		return sim, nil
	}
	for i := range topo.Nodes {
		sim, err := build(&topo.Nodes[i])
		if err != nil {
			return nil, err
		}
		c.index[topo.Nodes[i].Name] = i
		c.names = append(c.names, topo.Nodes[i].Name)
		c.nodes = append(c.nodes, sim)
	}
	for i := range topo.Parents {
		sim, err := build(&topo.Parents[i])
		if err != nil {
			return nil, err
		}
		c.parentNames = append(c.parentNames, topo.Parents[i].Name)
		c.parents = append(c.parents, sim)
	}
	return c, nil
}

// Owner returns the leaf node the ring routes the request URL to — the
// same answer a live fleet member computes, since both hash the same
// canonical route key through the same ring code.
func (c *Cluster) Owner(rawURL string) string {
	return c.ring.Owner(cluster.RouteKey(rawURL))
}

// Process pushes one request at its owning leaf, forwarding a fleet miss
// up the parent chain. It reports 0 for a fleet (leaf) hit, 1+i for a
// hit at parent level i, and -1 when everything missed.
func (c *Cluster) Process(req *trace.Request) int {
	if c.nodes[c.index[c.Owner(req.URL)]].Process(req).Hit() {
		return 0
	}
	for i, parent := range c.parents {
		if parent.Process(req).Hit() {
			return 1 + i
		}
	}
	return -1
}

// Run consumes a request stream to EOF in arrival order — the sequential
// replay the parity harness compares against a sequentially driven live
// fleet.
func (c *Cluster) Run(r trace.Reader) error {
	for {
		req, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("hierarchy: cluster run: %w", err)
		}
		c.Process(req)
	}
}

// LevelResult reports one cache's outcome.
type LevelResult struct {
	// Name is the node's name in the topology.
	Name string `json:"name"`
	// Result is the node's full simulation result; its Requests count is
	// the number of requests that reached the node.
	Result *core.Result `json:"result"`
}

// ClusterResult reports the per-node and per-parent outcomes of a fleet
// replay.
type ClusterResult struct {
	// Nodes holds one result per leaf, in topology order; each node's
	// Requests count is the size of the substream the ring routed to it.
	Nodes []LevelResult `json:"nodes"`
	// Parents holds the upper levels, nearest the fleet first; each sees
	// the merged miss stream of the level below.
	Parents []LevelResult `json:"parents,omitempty"`
}

// Fleet aggregates the leaves: total requests and hits across the ring —
// the cluster-wide hit rate the upper levels filter.
func (r ClusterResult) Fleet() (requests, hits int64) {
	for _, n := range r.Nodes {
		requests += n.Result.Overall.Requests
		hits += n.Result.Overall.Hits
	}
	return requests, hits
}

// Results returns the per-node and per-parent results.
func (c *Cluster) Results() ClusterResult {
	var out ClusterResult
	for i, sim := range c.nodes {
		out.Nodes = append(out.Nodes, LevelResult{Name: c.names[i], Result: sim.Result()})
	}
	for i, sim := range c.parents {
		out.Parents = append(out.Parents, LevelResult{Name: c.parentNames[i], Result: sim.Result()})
	}
	return out
}
