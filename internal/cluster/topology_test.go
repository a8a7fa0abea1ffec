package cluster

import (
	"os"
	"path/filepath"
	"testing"
)

const sampleTopology = `{
  "replicas": 64,
  "nodes": [
    {"name": "n1", "url": "http://127.0.0.1:8081", "admin": "http://127.0.0.1:9081", "capacity": "64MB", "policy": "lru"},
    {"name": "n2", "url": "http://127.0.0.1:8082", "admin": "http://127.0.0.1:9082", "capacity": "64MB"},
    {"name": "n3", "url": "http://127.0.0.1:8083"}
  ],
  "parents": [
    {"name": "parent", "url": "http://127.0.0.1:8090", "capacity": "256MB", "policy": "gdsf"}
  ]
}`

func TestParseTopology(t *testing.T) {
	topo, err := ParseTopology([]byte(sampleTopology))
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Nodes) != 3 || len(topo.Parents) != 1 {
		t.Fatalf("got %d nodes, %d parents", len(topo.Nodes), len(topo.Parents))
	}
	r, err := topo.Ring()
	if err != nil {
		t.Fatal(err)
	}
	if r.Replicas() != 64 {
		t.Fatalf("ring replicas = %d, want 64 from the file", r.Replicas())
	}
	if n := topo.Node("parent"); n == nil || n.Policy != "gdsf" {
		t.Fatalf("Node(parent) = %+v", n)
	}
	if topo.Node("ghost") != nil {
		t.Fatal("Node(ghost) should be nil")
	}
	cap1, err := topo.Node("n1").CapacityBytes(0)
	if err != nil || cap1 != 64<<20 {
		t.Fatalf("n1 capacity = %d, %v", cap1, err)
	}
	cap3, err := topo.Node("n3").CapacityBytes(123)
	if err != nil || cap3 != 123 {
		t.Fatalf("n3 default capacity = %d, %v", cap3, err)
	}
	if _, err := topo.Node("n3").PolicyFactory(); err != nil {
		t.Fatalf("default policy factory: %v", err)
	}
}

func TestTopologyPeerURLs(t *testing.T) {
	topo, err := ParseTopology([]byte(sampleTopology))
	if err != nil {
		t.Fatal(err)
	}
	peers, err := topo.PeerURLs("n2")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 {
		t.Fatalf("got %d peers, want 2", len(peers))
	}
	if _, ok := peers["n2"]; ok {
		t.Fatal("self listed among its own peers")
	}
	if peers["n1"].Host != "127.0.0.1:8081" {
		t.Fatalf("n1 peer URL = %v", peers["n1"])
	}
	if _, err := topo.PeerURLs("nope"); err == nil {
		t.Fatal("unknown self: want error")
	}
}

func TestTopologyValidation(t *testing.T) {
	bad := []string{
		`{}`,
		`{"nodes":[]}`,
		`{"nodes":[{"name":"","url":"http://x"}]}`,
		`{"nodes":[{"name":"a","url":"http://x"},{"name":"a","url":"http://y"}]}`,
		`{"nodes":[{"name":"a"}]}`,
		`{"nodes":[{"name":"a","url":"http://x","capacity":"lots"}]}`,
		`{"nodes":[{"name":"a","url":"http://x","policy":"magic"}]}`,
		`{"nodes":[{"name":"a","url":"http://x"}],"parents":[{"name":"a","url":"http://y"}]}`,
		`{"replicas":-1,"nodes":[{"name":"a","url":"http://x"}]}`,
		// A ring holds nodes×replicas points: 2^62 of them is a makeslice
		// panic in Ring, so the file is refused before anything is built.
		`{"replicas":4611686018427387904,"nodes":[{"name":"a","url":"http://x"}]}`,
		`{"replicas":4097,"nodes":[{"name":"a","url":"http://x"}]}`,
		// A field of the wrong type is a decode error, whatever the rest.
		`{"replicas":"many","nodes":[{"name":"a","url":"http://x"}]}`,
		// URLs every consumer dials must be absolute http(s).
		`{"nodes":[{"name":"a","url":"n1"}]}`,
		`{"nodes":[{"name":"a","url":"localhost:8080"}]}`,
		`{"nodes":[{"name":"a","url":"/just/a/path"}]}`,
		`{"nodes":[{"name":"a","url":"http://"}]}`,
		`{"nodes":[{"name":"a","url":"ftp://x"}]}`,
		`{"nodes":[{"name":"a","url":"http://x","admin":"localhost:9090"}]}`,
		`{"nodes":[{"name":"a","url":"http://x"}],"parents":[{"name":"p","url":"x:3128"}]}`,
		`not json`,
	}
	for _, doc := range bad {
		if _, err := ParseTopology([]byte(doc)); err == nil {
			t.Errorf("ParseTopology(%s): want error", doc)
		}
	}
}

func TestLoadTopology(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "topo.json")
	if err := os.WriteFile(path, []byte(sampleTopology), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTopology(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTopology(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file: want error")
	}
}

// FuzzParseTopology holds ParseTopology to its promise that a document it
// accepts can be served: the ring builds, every node's capacity and policy
// resolve, and every leaf can list its peers, without an error or a panic.
func FuzzParseTopology(f *testing.F) {
	for _, seed := range []string{
		sampleTopology,
		`{"replicas":4611686018427387904,"nodes":[{"name":"a","url":"http://x"}]}`,
		`{"replicas":4096,"nodes":[{"name":"a","url":"http://x","capacity":"1e30GB","policy":"gdstar:beta=nan"}]}`,
		`{"nodes":[{"name":"a","url":"https://x:1","admin":"http://y","policy":"typeaware+gds:p"}],"parents":[{"name":"p","url":"http://z","capacity":"0"}]}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		topo, err := ParseTopology([]byte(doc))
		if err != nil {
			return
		}
		if _, err := topo.Ring(); err != nil {
			t.Fatalf("Ring of an accepted topology: %v", err)
		}
		for _, nodes := range [][]Node{topo.Nodes, topo.Parents} {
			for _, n := range nodes {
				if _, err := n.CapacityBytes(1); err != nil {
					t.Fatalf("node %q CapacityBytes: %v", n.Name, err)
				}
				fac, err := n.PolicyFactory()
				if err != nil {
					t.Fatalf("node %q PolicyFactory: %v", n.Name, err)
				}
				fac.New()
			}
		}
		for _, n := range topo.Nodes {
			if _, err := topo.PeerURLs(n.Name); err != nil {
				t.Fatalf("PeerURLs(%q): %v", n.Name, err)
			}
		}
	})
}
