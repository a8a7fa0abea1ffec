package hierarchy

import (
	"fmt"
	"math/rand"
	"testing"

	"webcachesim/internal/cluster"
)

func testTopology(t *testing.T) *cluster.Topology {
	t.Helper()
	topo, err := cluster.ParseTopology([]byte(`{
	  "nodes": [
	    {"name": "n0", "url": "http://127.0.0.1:1", "capacity": "64KB"},
	    {"name": "n1", "url": "http://127.0.0.1:2", "capacity": "64KB"},
	    {"name": "n2", "url": "http://127.0.0.1:3", "capacity": "64KB"}
	  ],
	  "parents": [
	    {"name": "parent", "url": "http://127.0.0.1:4", "capacity": "128KB"}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(nil); err == nil {
		t.Error("nil topology accepted")
	}
	noCap, err := cluster.ParseTopology([]byte(`{"nodes":[{"name":"a","url":"http://x"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(noCap); err == nil {
		t.Error("node without capacity accepted — the simulator has no default to fall back on")
	}
}

// TestClusterRoutingIsStable pins the sim side of the routing contract:
// every reference to a URL lands on the same node, that node is what
// Owner reports, and a non-trivial corpus actually spreads across the
// ring.
func TestClusterRoutingIsStable(t *testing.T) {
	c, err := NewCluster(testTopology(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	perNode := map[string]int64{}
	for i := 0; i < 2000; i++ {
		url := fmt.Sprintf("http://origin.example/docs/%d.html", rng.Intn(300))
		c.Process(req(url, 500))
		perNode[c.Owner(url)]++
	}
	res := c.Results()
	if len(res.Nodes) != 3 || len(res.Parents) != 1 {
		t.Fatalf("results shape: %d nodes, %d parents", len(res.Nodes), len(res.Parents))
	}
	total := int64(0)
	for _, n := range res.Nodes {
		got := n.Result.Overall.Requests
		if got != perNode[n.Name] {
			t.Errorf("node %s processed %d requests, Owner predicted %d", n.Name, got, perNode[n.Name])
		}
		if got == 0 {
			t.Errorf("node %s received no traffic", n.Name)
		}
		total += got
	}
	if total != 2000 {
		t.Errorf("fleet processed %d requests, want 2000 (each exactly once)", total)
	}
}

// TestClusterFilteringTrend reproduces the arXiv 1202.4880 observation
// at fleet scale: the parent level, fed only the fleet's miss stream,
// sees traffic stripped of its short-distance re-references, so its hit
// rate lands below the fleet's.
func TestClusterFilteringTrend(t *testing.T) {
	c, err := NewCluster(testTopology(t))
	if err != nil {
		t.Fatal(err)
	}
	// Zipf-ish popularity over a doc set larger than one node's cache,
	// so both levels are exercised: the fleet absorbs the popular head,
	// the parent sees the filtered remainder.
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.2, 1, 799)
	for i := 0; i < 30000; i++ {
		doc := zipf.Uint64()
		url := fmt.Sprintf("http://origin.example/zipf/%d.html", doc)
		size := int64(400 + (doc*137)%2000)
		c.Process(req(url, size))
	}
	res := c.Results()
	fleetReqs, fleetHits := res.Fleet()
	if fleetReqs != 30000 {
		t.Fatalf("fleet requests = %d", fleetReqs)
	}
	fleetHR := float64(fleetHits) / float64(fleetReqs)
	parent := res.Parents[0].Result.Overall
	if parent.Requests != fleetReqs-fleetHits {
		t.Errorf("parent saw %d requests, want the fleet's %d misses",
			parent.Requests, fleetReqs-fleetHits)
	}
	parentHR := float64(parent.Hits) / float64(parent.Requests)
	if fleetHR <= 0.2 {
		t.Fatalf("fleet hit rate %.3f too low for the trend to be meaningful", fleetHR)
	}
	if parentHR >= fleetHR {
		t.Errorf("parent hit rate %.3f >= fleet hit rate %.3f; filtering should depress the upper level",
			parentHR, fleetHR)
	}
}
