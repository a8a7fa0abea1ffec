package core

import "webcachesim/internal/doctype"

// Counts accumulates the hit/byte-hit bookkeeping for one document class
// (or the overall stream).
type Counts struct {
	// Requests is the number of measured requests.
	Requests int64 `json:"requests"`
	// Hits is the number of measured cache hits.
	Hits int64 `json:"hits"`
	// ReqBytes is the total transfer volume requested.
	ReqBytes int64 `json:"reqBytes"`
	// HitBytes is the transfer volume served from cache.
	HitBytes int64 `json:"hitBytes"`
}

// HitRate returns Hits/Requests, or 0 with no requests.
func (c Counts) HitRate() float64 {
	if c.Requests == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Requests)
}

// ByteHitRate returns HitBytes/ReqBytes, or 0 with no requested bytes.
func (c Counts) ByteHitRate() float64 {
	if c.ReqBytes == 0 {
		return 0
	}
	return float64(c.HitBytes) / float64(c.ReqBytes)
}

// add merges another accumulator.
func (c *Counts) add(o Counts) {
	c.Requests += o.Requests
	c.Hits += o.Hits
	c.ReqBytes += o.ReqBytes
	c.HitBytes += o.HitBytes
}

// ClassCounts indexes Counts by document class; index 0 (Unknown) is
// unused.
type ClassCounts [doctype.NumClasses + 1]Counts

// OccupancySample is one point of the Figure 1 time series: how the cache
// is shared between document classes after a given number of requests.
type OccupancySample struct {
	// Request is the 1-based index of the request after which the sample
	// was taken.
	Request int64 `json:"request"`
	// Docs counts resident documents per class.
	Docs [doctype.NumClasses + 1]int64 `json:"docs"`
	// Bytes counts resident bytes per class.
	Bytes [doctype.NumClasses + 1]int64 `json:"bytes"`
	// TotalDocs is the number of resident documents.
	TotalDocs int64 `json:"totalDocs"`
	// TotalBytes is the number of resident bytes.
	TotalBytes int64 `json:"totalBytes"`
}

// DocFraction returns the fraction of cached documents belonging to class
// c at this sample, in percent.
func (s OccupancySample) DocFraction(c doctype.Class) float64 {
	if s.TotalDocs == 0 {
		return 0
	}
	return 100 * float64(s.Docs[c]) / float64(s.TotalDocs)
}

// ByteFraction returns the fraction of cached bytes belonging to class c
// at this sample, in percent.
func (s OccupancySample) ByteFraction(c doctype.Class) float64 {
	if s.TotalBytes == 0 {
		return 0
	}
	return 100 * float64(s.Bytes[c]) / float64(s.TotalBytes)
}

// Result is the outcome of simulating one policy at one cache size.
type Result struct {
	// Policy is the replacement scheme's display name.
	Policy string `json:"policy"`
	// Capacity is the cache size in bytes.
	Capacity int64 `json:"capacity"`
	// Overall aggregates all measured requests.
	Overall Counts `json:"overall"`
	// ByClass breaks the measured requests down by document class.
	ByClass ClassCounts `json:"byClass"`
	// WarmupRequests is the number of initial requests excluded from the
	// statistics.
	WarmupRequests int64 `json:"warmupRequests"`
	// Evictions counts replacement victims over the whole run (including
	// warm-up).
	Evictions int64 `json:"evictions"`
	// Modifications counts requests treated as document modifications.
	Modifications int64 `json:"modifications"`
	// Uncachable counts requests to documents larger than the cache.
	Uncachable int64 `json:"uncachable"`
	// Occupancy is the Figure 1 time series (empty unless sampling was
	// enabled).
	Occupancy []OccupancySample `json:"occupancy,omitempty"`
	// Admission is the admission filter's configured name, empty when
	// every candidate was admitted unconditionally (the default).
	Admission string `json:"admission,omitempty"`
	// Admitted counts documents the admission filter let in; zero-valued
	// (with AdmissionRejects and GhostHits) when no filter is configured.
	Admitted int64 `json:"admitted,omitempty"`
	// AdmissionRejects counts inserts the admission filter refused.
	AdmissionRejects int64 `json:"admissionRejects,omitempty"`
	// GhostHits counts admissions granted because the candidate was found
	// in a ghost directory of recently evicted documents.
	GhostHits int64 `json:"ghostHits,omitempty"`
}

// AdmissionName names the run's admission filter for tables and series
// keys, spelling the unfiltered case (empty Admission) as "none".
func (r *Result) AdmissionName() string {
	if r.Admission == "" {
		return "none"
	}
	return r.Admission
}
