// Package analyze (fixture) exercises clockmono's characterization scope:
// it is named analyze, and its tables must be a pure function of the trace.
package analyze

func meanSizeBad(sizes map[string]int64) float64 {
	total := 0.0
	for _, s := range sizes { // want `map iteration order is nondeterministic`
		total += float64(s)
	}
	return total / float64(len(sizes))
}

func meanSizeGood(sizes []int64) float64 {
	total := 0.0
	for _, s := range sizes {
		total += float64(s)
	}
	return total / float64(len(sizes))
}
