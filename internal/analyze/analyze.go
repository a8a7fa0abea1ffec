// Package analyze characterizes proxy workloads the way Section 2 of the
// paper does: per document class it reports the share of distinct
// documents, overall size, requests, and requested data (Tables 2/3), the
// document- and transfer-size statistics, and the two temporal-locality
// indices — the popularity index α and the temporal-correlation index β
// (Tables 4/5). It is used both to regenerate the paper's tables and to
// verify that the synthetic generator hits its calibration targets.
package analyze

import (
	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/report"
	"webcachesim/internal/stats"
)

// ClassSummary characterizes one document class.
type ClassSummary struct {
	// Class is the document class summarized.
	Class doctype.Class `json:"class"`
	// DistinctDocs counts distinct documents of the class.
	DistinctDocs int64 `json:"distinctDocs"`
	// DistinctBytes sums the largest charged size of each distinct
	// document ("overall size").
	DistinctBytes int64 `json:"distinctBytes"`
	// Requests counts requests to the class.
	Requests int64 `json:"requests"`
	// ReqBytes sums transfer sizes ("requested data").
	ReqBytes int64 `json:"reqBytes"`

	// Document-size statistics over distinct documents, in KB.
	MeanDocKB   float64 `json:"meanDocKB"`
	MedianDocKB float64 `json:"medianDocKB"`
	CoVDoc      float64 `json:"covDoc"`
	// Transfer-size statistics over requests, in KB.
	MeanTransferKB   float64 `json:"meanTransferKB"`
	MedianTransferKB float64 `json:"medianTransferKB"`
	CoVTransfer      float64 `json:"covTransfer"`

	// Alpha is the popularity index (slope of the rank/frequency plot);
	// valid only when AlphaOK.
	Alpha   float64 `json:"alpha"`
	AlphaOK bool    `json:"alphaOK"`
	// Beta is the temporal-correlation index (slope of the
	// inter-reference-distance density); valid only when BetaOK.
	Beta   float64 `json:"beta"`
	BetaOK bool    `json:"betaOK"`
}

// Characterization is the full workload characterization of a trace.
type Characterization struct {
	// Name labels the characterized trace.
	Name string `json:"name"`
	// Requests, ReqBytes, DistinctDocs, and DistinctBytes are the Table 1
	// totals.
	Requests      int64 `json:"requests"`
	ReqBytes      int64 `json:"reqBytes"`
	DistinctDocs  int64 `json:"distinctDocs"`
	DistinctBytes int64 `json:"distinctBytes"`
	// StartMillis and EndMillis bound the trace period.
	StartMillis int64 `json:"startMillis"`
	EndMillis   int64 `json:"endMillis"`
	// Classes holds the per-class summaries, indexed by doctype.Class.
	Classes [doctype.NumClasses + 1]ClassSummary `json:"classes"`
}

// PctDistinctDocs returns the class's share of distinct documents in
// percent (Tables 2/3, row 1).
func (c *Characterization) PctDistinctDocs(cl doctype.Class) float64 {
	return pct(c.Classes[cl].DistinctDocs, c.DistinctDocs)
}

// PctDistinctBytes returns the class's share of the overall size in
// percent (Tables 2/3, row 2).
func (c *Characterization) PctDistinctBytes(cl doctype.Class) float64 {
	return pct(c.Classes[cl].DistinctBytes, c.DistinctBytes)
}

// PctRequests returns the class's share of requests in percent
// (Tables 2/3, row 3).
func (c *Characterization) PctRequests(cl doctype.Class) float64 {
	return pct(c.Classes[cl].Requests, c.Requests)
}

// PctReqBytes returns the class's share of requested data in percent
// (Tables 2/3, row 4).
func (c *Characterization) PctReqBytes(cl doctype.Class) float64 {
	return pct(c.Classes[cl].ReqBytes, c.ReqBytes)
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// ClassMixTable renders the paper's Table 2/3: each class's share of the
// distinct documents, the overall size, the requests and the requested
// data.
func (c *Characterization) ClassMixTable(title string) *report.Table {
	t := report.NewClassTable(title)
	report.ClassRow(t, "% of Distinct Documents", c.PctDistinctDocs)
	report.ClassRow(t, "% of Overall Size", c.PctDistinctBytes)
	report.ClassRow(t, "% of Total Requests", c.PctRequests)
	report.ClassRow(t, "% of Requested Data", c.PctReqBytes)
	return t
}

// LocalityTable renders the paper's Table 4/5: per class, the document-
// and transfer-size statistics and the locality indices α and β ("n/a"
// where a class has too few documents to fit one). The two index rows are
// labelled by the caller: the paper's wording is long, wcstat's short.
func (c *Characterization) LocalityTable(title, alphaLabel, betaLabel string) *report.Table {
	t := report.NewClassTable(title)
	for _, row := range []struct {
		label string
		cell  func(ClassSummary) any
	}{
		{"Mean of Document Size (KB)", func(s ClassSummary) any { return s.MeanDocKB }},
		{"Median of Document Size (KB)", func(s ClassSummary) any { return s.MedianDocKB }},
		{"CoV of Document Size", func(s ClassSummary) any { return s.CoVDoc }},
		{"Mean of Transfer Size (KB)", func(s ClassSummary) any { return s.MeanTransferKB }},
		{"Median of Transfer Size (KB)", func(s ClassSummary) any { return s.MedianTransferKB }},
		{"CoV of Transfer Size", func(s ClassSummary) any { return s.CoVTransfer }},
		{alphaLabel, func(s ClassSummary) any { return IndexCell(s.Alpha, s.AlphaOK) }},
		{betaLabel, func(s ClassSummary) any { return IndexCell(s.Beta, s.BetaOK) }},
	} {
		report.ClassRow(t, row.label, func(cl doctype.Class) any { return row.cell(c.Classes[cl]) })
	}
	return t
}

// IndexCell is a locality index as a table cell: the value, or "n/a" when
// the class had too few documents to fit one.
func IndexCell(v float64, ok bool) any {
	if !ok {
		return "n/a"
	}
	return v
}

// Characterize computes a workload's characterization from the columns
// core built when it ingested the trace: per document, its
// request count and largest charged size; per class, requests, bytes and
// transfer sizes. A document's class is the one the simulator attributes
// its requests to, and its size is what the simulator charges, so the
// tables describe exactly the stream the sweeps replay.
func Characterize(w *core.Workload, name string) *Characterization {
	out := &Characterization{Name: name}
	n := w.NumRequests()
	count := make([]int64, w.NumDocs())
	size := make([]int64, w.NumDocs())
	var transfers [doctype.NumClasses + 1][]float64
	for i := range n {
		ev := w.Event(i)
		count[ev.DocID]++
		size[ev.DocID] = max(size[ev.DocID], ev.DocSize)
		out.Requests++
		out.ReqBytes += ev.TransferSize
		cs := &out.Classes[ev.Class]
		cs.Requests++
		cs.ReqBytes += ev.TransferSize
		transfers[ev.Class] = append(transfers[ev.Class], float64(ev.TransferSize))
		if out.StartMillis == 0 || ev.UnixMillis < out.StartMillis {
			out.StartMillis = ev.UnixMillis
		}
		out.EndMillis = max(out.EndMillis, ev.UnixMillis)
	}

	// β: inter-reference distances on the global request clock, of the
	// documents inside the popularity band — "equally popular documents",
	// so the distance distribution does not mix popularity into
	// correlation.
	const minRefs, maxRefs, minSamples = 3, 50, 16
	var hists [doctype.NumClasses + 1]*stats.LogHistogram
	for _, cl := range doctype.Classes {
		hists[cl], _ = stats.NewLogHistogram(2) // base 2 is valid
	}
	lastSeen := make([]int64, w.NumDocs())
	for i := range n {
		ev := w.Event(i)
		id, clock := ev.DocID, int64(i)+1
		if c := count[id]; lastSeen[id] > 0 && c >= minRefs && c <= maxRefs {
			hists[ev.Class].Add(float64(clock - lastSeen[id]))
		}
		lastSeen[id] = clock
	}

	// Fold per-document state into per-class summaries, in document order.
	var docSizes [doctype.NumClasses + 1][]float64
	var reqCounts [doctype.NumClasses + 1][]int64
	for id := range int32(w.NumDocs()) {
		cl := w.DocClass(id)
		cs := &out.Classes[cl]
		cs.DistinctDocs++
		cs.DistinctBytes += size[id]
		docSizes[cl] = append(docSizes[cl], float64(size[id]))
		reqCounts[cl] = append(reqCounts[cl], count[id])
	}
	for _, cl := range doctype.Classes {
		cs := &out.Classes[cl]
		cs.Class = cl
		out.DistinctDocs += cs.DistinctDocs
		out.DistinctBytes += cs.DistinctBytes

		const kb = 1024.0
		if len(docSizes[cl]) > 0 {
			cs.MeanDocKB = stats.Mean(docSizes[cl]) / kb
			cs.MedianDocKB = stats.Median(docSizes[cl]) / kb
			cs.CoVDoc = stats.CoV(docSizes[cl])
		}
		if len(transfers[cl]) > 0 {
			cs.MeanTransferKB = stats.Mean(transfers[cl]) / kb
			cs.MedianTransferKB = stats.Median(transfers[cl]) / kb
			cs.CoVTransfer = stats.CoV(transfers[cl])
		}
		if alpha, _, err := stats.PopularityIndex(reqCounts[cl]); err == nil {
			cs.Alpha, cs.AlphaOK = alpha, true
		}
		if hists[cl].Total() >= minSamples {
			centers, densities := hists[cl].Buckets()
			if f, err := stats.FitPowerLaw(centers, densities); err == nil {
				cs.Beta, cs.BetaOK = -f.Slope, true
			}
		}
	}
	return out
}
