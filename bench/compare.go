package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of a comparison row, by the choosing-metrics rules.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// readRecords loads the untraced runs of a -record file, grouped by
// workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// judge compares the runs of one end-to-end metric on one workload.
// worse is how much worse b's median is than a's, as a share of a's, in
// the metric's own direction; spread is the distance between a's
// quartiles as a share of its median.
//
//   - regressed: worse by more than the bound;
//   - unresolved: a's own runs spread wider than the bound, so "within the
//     bound" cannot be told from noise — unless every run of b reads better
//     than every run of a;
//   - improved: better by more than a's spread and every run of b reads
//     better than every run of a;
//   - unchanged: otherwise.
func judge(def metricDef, a, b []float64) (verdict string, worse, spread float64) {
	q1, med, q3 := quartiles(a)
	_, medB, _ := quartiles(b)
	if med != 0 {
		spread = (q3 - q1) / med
		worse = (medB - med) / med
		if spread < 0 {
			spread = -spread
		}
	}
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	allBetter := sb[0] > sa[len(sa)-1]
	if def.Better == "lower" {
		allBetter = sb[len(sb)-1] < sa[0]
	} else {
		worse = -worse
	}
	switch {
	case worse > def.Bound:
		return verdictRegressed, worse, spread
	case allBetter && -worse > spread:
		return verdictImproved, worse, spread
	case spread > def.Bound && !allBetter:
		return verdictUnresolved, worse, spread
	default:
		return verdictUnchanged, worse, spread
	}
}

// compareFiles prints one row per (metric, workload) pair present in
// both record files and reports whether any row regressed. It refuses to
// compare a workload whose two sides ran on different inputs.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-15s %12s %12s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B median", "worse", "spread", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		if err := sameInputs(wl.Name, ra, rb); err != nil {
			return false, err
		}
		for _, def := range endToEnd {
			va, vb := column(ra, def.Name), column(rb, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, worse, spread := judge(def, va, vb)
			q1, med, q3 := quartiles(va)
			fmt.Fprintf(w, "%-14s %-15s %12.6g %12.6g %12.6g %12.6g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.Name, def.Name, q1, med, q3, median(vb), 100*worse, 100*spread, 100*def.Bound, verdict)
			if verdict == verdictRegressed {
				regressed = true
			}
		}
		for _, r := range append(ra, rb...) {
			if !r.Correct || r.Failed != 0 {
				fmt.Fprintf(w, "%-14s a run with seed %d failed %d of %d operations (correct=%v)\n", wl.Name, r.Seed, r.Failed, r.Attempted, r.Correct)
				regressed = true
			}
		}
	}
	return regressed, nil
}

// sameInputs checks that both sides ran the same set of input digests.
func sameInputs(workload string, a, b []record) error {
	set := func(rs []record) map[string]bool {
		m := make(map[string]bool)
		for _, r := range rs {
			m[r.Digest] = true
		}
		return m
	}
	sa, sb := set(a), set(b)
	for _, side := range [2][2]map[string]bool{{sa, sb}, {sb, sa}} {
		for d := range side[0] {
			if !side[1][d] {
				return fmt.Errorf("%s: input digest %.12s… appears on one side only; the two files ran different inputs (changed seeds or a changed generator) and cannot be compared", workload, d)
			}
		}
	}
	return nil
}

// column extracts one metric's values from a set of runs.
func column(rs []record, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}
