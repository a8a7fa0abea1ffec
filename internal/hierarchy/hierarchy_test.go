package hierarchy

import (
	"reflect"
	"testing"

	"webcachesim/internal/analyze"
	"webcachesim/internal/cluster"
	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
	"webcachesim/internal/synth"
	"webcachesim/internal/trace"
)

func lru() policy.Factory { return policy.MustFactory(policy.Spec{Scheme: "lru"}) }

func req(url string, size int64) *trace.Request {
	return &trace.Request{URL: url, Status: 200, TransferSize: size, DocSize: size}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0); err == nil {
		t.Error("empty hierarchy accepted")
	}
	if _, err := New([]LevelConfig{{Capacity: 0, Policy: lru()}}, 0); err == nil {
		t.Error("invalid level accepted")
	}
}

func TestTwoLevelForwarding(t *testing.T) {
	h, err := New([]LevelConfig{
		{Name: "child", Capacity: 10_000, Policy: lru()},
		{Name: "parent", Capacity: 100_000, Policy: lru()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// First reference misses everywhere, second hits the child.
	if got := h.Process(req("http://e.com/a.gif", 100)); got != -1 {
		t.Errorf("first reference hit level %d", got)
	}
	if got := h.Process(req("http://e.com/a.gif", 100)); got != 0 {
		t.Errorf("second reference hit level %d, want 0", got)
	}
	rs := h.Results().Levels()
	if len(rs) != 2 || rs[0].Name != "child" || rs[1].Name != "parent" {
		t.Fatalf("results: %+v", rs)
	}
	// The child saw 2 requests; the parent saw only the child's 1 miss.
	if rs[0].Result.Overall.Requests != 2 {
		t.Errorf("child requests = %d, want 2", rs[0].Result.Overall.Requests)
	}
	if rs[1].Result.Overall.Requests != 1 {
		t.Errorf("parent requests = %d, want 1", rs[1].Result.Overall.Requests)
	}
}

func TestParentHitAfterChildEviction(t *testing.T) {
	// Child too small to hold both docs; parent holds everything. After
	// the child evicts a.gif, the re-reference must hit the parent.
	h, err := New([]LevelConfig{
		{Name: "child", Capacity: 150, Policy: lru()},
		{Name: "parent", Capacity: 1 << 20, Policy: lru()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Process(req("http://e.com/a.gif", 100)) // miss both, cached in both
	h.Process(req("http://e.com/b.gif", 100)) // child evicts a.gif
	if got := h.Process(req("http://e.com/a.gif", 100)); got != 1 {
		t.Errorf("re-reference hit level %d, want parent (1)", got)
	}
}

func TestMissStreamHoldsOnlyGlobalMisses(t *testing.T) {
	h, err := New([]LevelConfig{{Capacity: 1 << 20, Policy: lru()}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var missed []string
	for _, r := range []*trace.Request{
		req("http://e.com/a.gif", 10),
		req("http://e.com/a.gif", 10),
		req("http://e.com/b.gif", 10),
	} {
		if h.Process(r) < 0 {
			missed = append(missed, r.URL)
		}
	}
	if len(missed) != 2 {
		t.Fatalf("miss stream holds %d requests, want 2 (misses only): %v", len(missed), missed)
	}
}

func TestRunFromReader(t *testing.T) {
	reqs := []*trace.Request{
		req("http://e.com/a.gif", 10),
		req("http://e.com/a.gif", 10),
	}
	h, err := New([]LevelConfig{{Capacity: 1 << 20, Policy: lru()}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Run(trace.NewSliceReader(reqs)); err != nil {
		t.Fatal(err)
	}
	if hr := h.Results().Nodes[0].Result.Overall.HitRate(); hr != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", hr)
	}
}

// TestChainEqualsOneNodeTopology pins the fold of the chain replay into
// Cluster: the same two-level LRU chain built through New and through
// NewCluster on a one-node-plus-one-parent topology yields identical
// results on the same stream.
func TestChainEqualsOneNodeTopology(t *testing.T) {
	reqs, err := synth.Generate(synth.DFNProfile(), synth.Options{Seed: 5, Requests: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New([]LevelConfig{
		{Name: "child", Capacity: 4 << 20, Policy: lru()},
		{Name: "parent", Capacity: 16 << 20, Policy: lru()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cluster.ParseTopology([]byte(`{
	  "nodes":   [{"name": "child", "url": "http://127.0.0.1:1", "capacity": "4MB", "policy": "lru"}],
	  "parents": [{"name": "parent", "url": "http://127.0.0.1:2", "capacity": "16MB", "policy": "lru"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewCluster(topo, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Cluster{chain, fleet} {
		if err := c.Run(trace.NewSliceReader(reqs)); err != nil {
			t.Fatal(err)
		}
	}
	got, want := chain.Results(), fleet.Results()
	if want.Parents[0].Result.Overall.Hits == 0 {
		t.Fatal("parent level never hit; fixture exercises one level only")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("chain and one-node topology diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestFilteringFlattensPopularity reproduces the mechanism behind the
// paper's workload observations: the DFN/RTP traces were recorded at
// upper-level proxies, and §2 measures flatter popularity (small α) than
// origin-side studies. A child LRU cache absorbs the head of the
// popularity distribution, so its miss stream — what the upper-level
// proxy records — has a measurably smaller α than the original stream.
func TestFilteringFlattensPopularity(t *testing.T) {
	if testing.Short() {
		t.Skip("filtering study is slow")
	}
	reqs, err := synth.Generate(synth.DFNProfile(), synth.Options{Seed: 41, Requests: 120_000})
	if err != nil {
		t.Fatal(err)
	}
	original, err := analyze.Characterize(trace.NewSliceReader(reqs), "origin")
	if err != nil {
		t.Fatal(err)
	}

	h, err := New([]LevelConfig{{Name: "institutional", Capacity: 32 << 20, Policy: lru()}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var missStream []*trace.Request
	for _, r := range reqs {
		if h.Process(r) < 0 {
			missStream = append(missStream, r)
		}
	}
	filtered, err := analyze.Characterize(trace.NewSliceReader(missStream), "upper-level")
	if err != nil {
		t.Fatal(err)
	}

	ocls := original.Classes[doctype.Image]
	fcls := filtered.Classes[doctype.Image]
	if !ocls.AlphaOK || !fcls.AlphaOK {
		t.Fatal("alpha not measurable")
	}
	if fcls.Alpha >= ocls.Alpha {
		t.Errorf("filtering did not flatten popularity: upper-level α %.3f vs origin α %.3f",
			fcls.Alpha, ocls.Alpha)
	}
	if len(missStream) >= len(reqs) {
		t.Error("child cache absorbed nothing")
	}
}
