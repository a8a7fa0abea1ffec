// Package analyze characterizes proxy workloads the way Section 2 of the
// paper does: per document class it reports the share of distinct
// documents, overall size, requests, and requested data (Tables 2/3), the
// document- and transfer-size statistics, and the two temporal-locality
// indices — the popularity index α and the temporal-correlation index β
// (Tables 4/5). It is used both to regenerate the paper's tables and to
// verify that the synthetic generator hits its calibration targets.
package analyze

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"webcachesim/internal/doctype"
	"webcachesim/internal/report"
	"webcachesim/internal/stats"
	"webcachesim/internal/trace"
)

// ClassSummary characterizes one document class.
type ClassSummary struct {
	// Class is the document class summarized.
	Class doctype.Class `json:"class"`
	// DistinctDocs counts distinct documents of the class.
	DistinctDocs int64 `json:"distinctDocs"`
	// DistinctBytes sums the final recorded size of each distinct
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
	// DistinctClients counts distinct client identifiers (0 when the
	// trace records none).
	DistinctClients int64 `json:"distinctClients"`
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

// docInfo tracks one distinct document during the scan.
type docInfo struct {
	key   string // the scan's own copy of the URL
	class doctype.Class
	size  int64
	count int64
}

// Characterize scans a (preprocessed) request stream and computes the full
// workload characterization. The scan holds per-document state and
// per-class transfer-size samples in memory; it is intended for
// calibration-scale traces (up to a few million requests).
func Characterize(r trace.Reader, name string) (*Characterization, error) {
	docs := make(map[string]*docInfo, 1024)
	var transfers [doctype.NumClasses + 1][]float64
	var correl [doctype.NumClasses + 1]*stats.CorrelationEstimator
	for _, cl := range doctype.Classes {
		correl[cl] = stats.NewCorrelationEstimator()
	}

	out := &Characterization{Name: name}
	clients := make(map[string]bool, 64)
	var clock int64
	for {
		req, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("analyze: characterize: %w", err)
		}
		clock++
		cl := req.Classify()
		key := req.URL
		info, ok := docs[key]
		if !ok {
			// The request's strings alias the reader's block: keep a copy.
			info = &docInfo{key: strings.Clone(key), class: cl}
			docs[info.key] = info
		}
		size := req.DocSize
		if size <= 0 {
			size = req.TransferSize
		}
		if size > info.size {
			info.size = size
		}
		info.count++

		out.Requests++
		out.ReqBytes += req.TransferSize
		cs := &out.Classes[cl]
		cs.Requests++
		cs.ReqBytes += req.TransferSize
		transfers[cl] = append(transfers[cl], float64(req.TransferSize))
		// Distances are measured on the global stream clock, as the paper
		// defines temporal correlation.
		correl[cl].ObserveAt(info.key, clock)

		if c := req.Client; c != "" && c != "-" && !clients[c] {
			clients[strings.Clone(c)] = true
		}
		if out.StartMillis == 0 || req.UnixMillis < out.StartMillis {
			out.StartMillis = req.UnixMillis
		}
		if req.UnixMillis > out.EndMillis {
			out.EndMillis = req.UnixMillis
		}
	}
	out.DistinctClients = int64(len(clients))

	// Fold per-document state into per-class summaries.
	var docSizes [doctype.NumClasses + 1][]float64
	var reqCounts [doctype.NumClasses + 1][]int64
	for _, info := range docs {
		cs := &out.Classes[info.class]
		cs.DistinctDocs++
		cs.DistinctBytes += info.size
		docSizes[info.class] = append(docSizes[info.class], float64(info.size))
		reqCounts[info.class] = append(reqCounts[info.class], info.count)
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
		if beta, _, err := correl[cl].Beta(); err == nil {
			cs.Beta, cs.BetaOK = beta, true
		}
	}
	return out, nil
}
