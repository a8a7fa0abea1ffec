package main

import (
	"runtime"
	"sort"
	"time"
)

// The machine this benchmark runs on is a shared virtual machine, and the
// hypervisor takes its processors away in spells (steal time). With a
// tenth of processor time stolen a serving pass completes 30 % fewer
// requests, its p99 triples and its CPU per request rises by half, while
// its p50 hardly moves: nothing simple corrects that, the pass is lost.
// The kernel reports stolen time, so a pass or pipeline run during which
// more than stolenLimit of processor time was stolen is not counted.

// stolenLimit is the share of processor time the hypervisor may take
// during a repetition that still counts.
const stolenLimit = 0.01

// disturbed reports whether more than stolenLimit of the processor time
// of an interval was stolen.
func disturbed(wall, stolen time.Duration) bool {
	return float64(stolen) > stolenLimit*float64(wall)*float64(runtime.GOMAXPROCS(0))
}

// usable picks the repetitions a run's medians are taken over: those
// during which the hypervisor stole no more than stolenLimit of processor
// time, or, when fewer than minPasses were that lucky, the minPasses that
// lost least. wall and stolen are per repetition; the answer is a list of
// indices.
func usable(wall, stolen []time.Duration) []int {
	idx := make([]int, len(wall))
	for i := range idx {
		idx[i] = i
	}
	share := func(i int) float64 { return float64(stolen[i]) / float64(wall[i]) }
	sort.SliceStable(idx, func(a, b int) bool { return share(idx[a]) < share(idx[b]) })
	n := 0
	for n < len(idx) && !disturbed(wall[idx[n]], stolen[idx[n]]) {
		n++
	}
	return idx[:min(max(n, minPasses), len(idx))]
}

// pick returns the values of vs at the given indices.
func pick(vs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = vs[j]
	}
	return out
}
