package stats

import (
	"math"
	"sort"
)

// The two sources of temporal locality distinguished by the paper
// (Section 2, following Jin & Bestavros):
//
//   - Popularity: the number of requests N to a document is proportional
//     to its popularity rank ρ raised to -α. α is the slope of the
//     rank/frequency plot on log-log axes ("Slope of Popularity
//     Distribution" in Tables 4 and 5).
//
//   - Temporal correlation: for equally popular documents, the probability
//     P that a document is re-requested n requests after its previous
//     reference is proportional to n^-β ("Degree of Temporal Correlations"
//     in Tables 4 and 5).
//
// This file implements the offline α estimator. β is a power-law fit
// (FitPowerLaw) of a LogHistogram of inter-reference distances: the offline
// characterization fills one in internal/analyze, and the online estimator
// that GD* uses at run time lives in internal/policy.

// PopularityIndex estimates the Zipf popularity index α from per-document
// request counts. Counts of zero are ignored. The estimator bins ranks
// geometrically before regressing, which keeps the heavy singleton tail of
// proxy workloads from dominating the fit.
//
// It returns ErrInsufficientData when fewer than two non-empty rank bins
// remain.
func PopularityIndex(requestCounts []int64) (alpha float64, fit LinearFit, err error) {
	counts := make([]int64, 0, len(requestCounts))
	for _, c := range requestCounts {
		if c > 0 {
			counts = append(counts, c)
		}
	}
	if len(counts) < 2 {
		return 0, LinearFit{}, ErrInsufficientData
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })

	// Geometric rank bins: [1,2), [2,4), [4,8), ... Average the request
	// count within each bin and place it at the bin's geometric-center
	// rank.
	var ranks, freqs []float64
	for lo := 1; lo <= len(counts); lo *= 2 {
		hi := lo * 2
		if hi > len(counts)+1 {
			hi = len(counts) + 1
		}
		var sum float64
		for r := lo; r < hi; r++ {
			sum += float64(counts[r-1])
		}
		n := float64(hi - lo)
		if n == 0 {
			continue
		}
		ranks = append(ranks, math.Sqrt(float64(lo)*float64(hi-1)))
		freqs = append(freqs, sum/n)
	}
	f, err := FitPowerLaw(ranks, freqs)
	if err != nil {
		return 0, LinearFit{}, err
	}
	return -f.Slope, f, nil
}
