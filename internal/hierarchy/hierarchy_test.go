package hierarchy

import (
	"strconv"
	"testing"

	"webcachesim/internal/analyze"
	"webcachesim/internal/cluster"
	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/synth"
	"webcachesim/internal/trace"
)

func req(url string, size int64) *trace.Request {
	return &trace.Request{URL: url, Status: 200, TransferSize: size, DocSize: size}
}

// level is an LRU cache of capacity bytes.
func level(name string, capacity int64) cluster.Node {
	return cluster.Node{Name: name, Capacity: strconv.FormatInt(capacity, 10)}
}

// chain builds a plain chain of caches, bottom first: a one-node topology
// whose leaf owns every document, under the other levels as its parents.
func chain(t *testing.T, leaf cluster.Node, parents ...cluster.Node) *Cluster {
	t.Helper()
	c, err := NewCluster(&cluster.Topology{Nodes: []cluster.Node{leaf}, Parents: parents})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestNewValidation pins what a chain refuses: one with no levels, and one
// with a zero-capacity level at the bottom or above it.
func TestNewValidation(t *testing.T) {
	if _, err := NewCluster(&cluster.Topology{}); err == nil {
		t.Error("empty hierarchy accepted")
	}
	if _, err := NewCluster(&cluster.Topology{Nodes: []cluster.Node{level("child", 0)}}); err == nil {
		t.Error("zero-capacity bottom level accepted")
	}
	if _, err := NewCluster(&cluster.Topology{Nodes: []cluster.Node{level("child", 100)}, Parents: []cluster.Node{level("parent", 0)}}); err == nil {
		t.Error("zero-capacity upper level accepted")
	}
}

func TestTwoLevelForwarding(t *testing.T) {
	h := chain(t, level("child", 10_000), level("parent", 100_000))
	// First reference misses everywhere, second hits the child.
	if got := h.Process(req("http://e.com/a.gif", 100)); got != -1 {
		t.Errorf("first reference hit level %d", got)
	}
	if got := h.Process(req("http://e.com/a.gif", 100)); got != 0 {
		t.Errorf("second reference hit level %d, want 0", got)
	}
	res := h.Results()
	if len(res.Nodes) != 1 || len(res.Parents) != 1 || res.Nodes[0].Name != "child" || res.Parents[0].Name != "parent" {
		t.Fatalf("results: %+v", res)
	}
	// The child saw 2 requests; the parent saw only the child's 1 miss.
	if got := res.Nodes[0].Result.Overall.Requests; got != 2 {
		t.Errorf("child requests = %d, want 2", got)
	}
	if got := res.Parents[0].Result.Overall.Requests; got != 1 {
		t.Errorf("parent requests = %d, want 1", got)
	}
}

func TestParentHitAfterChildEviction(t *testing.T) {
	// Child too small to hold both docs; parent holds everything. After
	// the child evicts a.gif, the re-reference must hit the parent.
	h := chain(t, level("child", 150), level("parent", 1<<20))
	h.Process(req("http://e.com/a.gif", 100)) // miss both, cached in both
	h.Process(req("http://e.com/b.gif", 100)) // child evicts a.gif
	if got := h.Process(req("http://e.com/a.gif", 100)); got != 1 {
		t.Errorf("re-reference hit level %d, want parent (1)", got)
	}
}

func TestMissStreamHoldsOnlyGlobalMisses(t *testing.T) {
	h := chain(t, level("L1", 1<<20))
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
	h := chain(t, level("L1", 1<<20))
	if err := h.Run(trace.NewSliceReader(reqs)); err != nil {
		t.Fatal(err)
	}
	if hr := h.Results().Nodes[0].Result.Overall.HitRate(); hr != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", hr)
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
	original := characterize(t, reqs, "origin")

	h := chain(t, level("institutional", 32<<20))
	var missStream []*trace.Request
	for _, r := range reqs {
		if h.Process(r) < 0 {
			missStream = append(missStream, r)
		}
	}
	filtered := characterize(t, missStream, "upper-level")

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

func characterize(t *testing.T, reqs []*trace.Request, name string) *analyze.Characterization {
	t.Helper()
	w, err := core.BuildWorkload(trace.NewSliceReader(reqs), 0)
	if err != nil {
		t.Fatal(err)
	}
	return analyze.Characterize(w, name)
}
