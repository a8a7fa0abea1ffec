package experiment

import (
	"fmt"

	"webcachesim/internal/admission"
	"webcachesim/internal/analyze"
	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/hierarchy"
	"webcachesim/internal/policy"
	"webcachesim/internal/report"
	"webcachesim/internal/trace"
)

// Extra experiments that go beyond the paper's artifacts. They are not in
// All (which reproduces the paper exactly) but are reachable through Run
// and `wcreport -exp <id>`.
const (
	// Filtering reproduces the mechanism behind §2's workload properties:
	// a child cache filters the stream an upper-level proxy records,
	// flattening its popularity distribution.
	Filtering ID = "filtering"
	// Baselines is the related-work roundup (Arlitt et al. [1]): the
	// paper's six configurations plus FIFO, SIZE, LFU, SLRU, GDSF, and
	// the TypeAware extension at one mid-grid cache size.
	Baselines ID = "baselines"
	// AdmissionGrid crosses the paper's six configurations with the
	// admission filters (none, TinyLFU, ARC-ghost) at the smallest swept
	// cache size — the regime where keeping one-hit wonders out matters
	// most — and reports hit rates per document type.
	AdmissionGrid ID = "admission"
)

// Extras lists the beyond-the-paper experiments.
var Extras = []ID{Filtering, Baselines, AdmissionGrid}

// runFiltering pushes each profile's stream through an institutional LRU
// child cache and characterizes the miss stream — the trace an
// upper-level proxy like DFN's or RTP's would record.
func (e *Env) runFiltering() (*Output, error) {
	t := report.NewTable("Stream filtering through an institutional cache",
		"", "requests", "image α", "image β", "mm+app data %")
	var checks []ShapeCheck
	for _, profile := range []string{"dfn", "rtp"} {
		reqs, err := e.Requests(profile)
		if err != nil {
			return nil, err
		}
		before, err := e.Characterization(profile)
		if err != nil {
			return nil, err
		}
		w, err := e.Workload(profile)
		if err != nil {
			return nil, err
		}
		childCap := int64(0.02 * float64(w.DistinctBytes()))
		if childCap < 1<<20 {
			childCap = 1 << 20
		}
		h, err := hierarchy.New(
			[]hierarchy.LevelConfig{{
				Name:     "institutional",
				Capacity: childCap,
				Policy:   policy.MustFactory(policy.Spec{Scheme: "lru"}),
			}},
			0,
		)
		if err != nil {
			return nil, err
		}
		var missStream []*trace.Request
		for _, r := range reqs {
			if h.Process(r) < 0 {
				missStream = append(missStream, r)
			}
		}
		after, err := analyze.Characterize(trace.NewSliceReader(missStream), profile+"-filtered")
		if err != nil {
			return nil, err
		}

		addRow := func(label string, c *analyze.Characterization) {
			img := c.Classes[doctype.Image]
			alpha, beta := "n/a", "n/a"
			if img.AlphaOK {
				alpha = report.FormatFloat(img.Alpha)
			}
			if img.BetaOK {
				beta = report.FormatFloat(img.Beta)
			}
			mmApp := c.PctReqBytes(doctype.MultiMedia) + c.PctReqBytes(doctype.Application)
			t.AddRowf(label, c.Requests, alpha, beta, mmApp)
		}
		addRow(profile+" at the clients", before)
		addRow(profile+" above the cache", after)

		bImg, aImg := before.Classes[doctype.Image], after.Classes[doctype.Image]
		checks = append(checks, ShapeCheck{
			Name: fmt.Sprintf("%s: filtering flattens image popularity (α drops)", profile),
			Pass: bImg.AlphaOK && aImg.AlphaOK && aImg.Alpha < bImg.Alpha,
			Detail: fmt.Sprintf("α %.3f → %.3f over a 2%%-of-trace child cache",
				bImg.Alpha, aImg.Alpha),
		})
	}
	return &Output{
		ID:     Filtering,
		Title:  "Extra — why upper-level traces look like §2: stream filtering",
		Tables: []*TableArtifact{artifact(t)},
		Checks: checks,
		Notes: []string{
			e.scaleNote(),
			"extension beyond the paper: reproduces the filtered-stream origin of the DFN/RTP workload characteristics",
		},
	}, nil
}

// runAdmission sweeps the paper's six configurations under every
// admission filter at the smallest swept cache size and breaks hit rates
// down by document type. At that size the cache cannot hold the working
// set, so an admission filter that keeps one-hit wonders out of the
// cache is the cheapest way to protect the documents that will be
// re-referenced — the per-type tables show which document classes that
// protection reaches.
func (e *Env) runAdmission() (*Output, error) {
	w, err := e.Workload("dfn")
	if err != nil {
		return nil, err
	}
	caps := e.Capacities(w)
	capacity := caps[0]

	results, err := core.Sweep(w, core.SweepConfig{
		Policies:    policy.StudyFactories(),
		Admissions:  admission.Specs(),
		Capacities:  []int64{capacity},
		Parallelism: e.opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}

	admName := func(r *core.Result) string {
		if r.Admission == "" {
			return "none"
		}
		return r.Admission
	}
	byCell := make(map[string]*core.Result, len(results))
	for _, r := range results {
		byCell[r.Policy+"|"+admName(r)] = r
	}

	capMB := float64(capacity) / bytesPerMB
	overall := report.NewTable(
		fmt.Sprintf("Admission grid — DFN workload, %.0f MB cache", capMB),
		"Policy", "Admission", "HR", "BHR", "Rejects", "Ghost hits")
	for _, r := range results {
		overall.AddRowf(r.Policy, admName(r), r.Overall.HitRate(),
			r.Overall.ByteHitRate(), r.AdmissionRejects, r.GhostHits)
	}
	tables := []*TableArtifact{artifact(overall)}
	for _, cl := range doctype.Classes {
		ct := report.NewTable(
			fmt.Sprintf("%s — HR/BHR by policy × admission, %.0f MB cache", cl, capMB),
			"Policy", "Admission", "HR", "BHR", "Requests")
		for _, r := range results {
			c := r.ByClass[cl]
			ct.AddRowf(r.Policy, admName(r), c.HitRate(), c.ByteHitRate(), c.Requests)
		}
		tables = append(tables, artifact(ct))
	}

	// TinyLFU must lift the hit rate of at least one (scheme, doc type)
	// cell over unfiltered admission; report the largest lift found.
	bestLift, bestCell := 0.0, "none found"
	var rejects int64
	for _, f := range policy.StudyFactories() {
		none, tiny := byCell[f.Name+"|none"], byCell[f.Name+"|tinylfu"]
		if none == nil || tiny == nil {
			continue
		}
		rejects += tiny.AdmissionRejects
		for _, cl := range doctype.Classes {
			lift := tiny.ByClass[cl].HitRate() - none.ByClass[cl].HitRate()
			if lift > bestLift {
				bestLift = lift
				bestCell = fmt.Sprintf("%s/%s HR %.4f → %.4f",
					f.Name, cl, none.ByClass[cl].HitRate(), tiny.ByClass[cl].HitRate())
			}
		}
	}
	checks := []ShapeCheck{
		{
			Name:   "TinyLFU lifts some document type's hit rate over unfiltered admission",
			Pass:   bestLift > 0,
			Detail: bestCell,
		},
		{
			Name:   "TinyLFU actually filters (rejections observed at the smallest cache size)",
			Pass:   rejects > 0,
			Detail: fmt.Sprintf("%d rejected inserts across the six schemes", rejects),
		},
	}
	return &Output{
		ID:     AdmissionGrid,
		Title:  "Extra — admission filters × replacement schemes at the smallest cache size",
		Tables: tables,
		Checks: checks,
		Notes: []string{
			e.scaleNote(),
			"extension beyond the paper: ghost-directed admission (TinyLFU, ARC-ghost) composed with the six study configurations; see docs/ADMISSION.md",
		},
	}, nil
}

// baselineLineup is the related-work roundup: spec strings in
// presentation order.
var baselineLineup = []string{
	"lru", "lfuda", "gds:1", "gdstar:1", "gds:p", "gdstar:p",
	"gdsf:p", "slru", "fifo", "size", "lfu", "typeaware+gdstar:1",
}

// runBaselines simulates the extended policy lineup on the DFN workload
// at a mid-grid cache size.
func (e *Env) runBaselines() (*Output, error) {
	w, err := e.Workload("dfn")
	if err != nil {
		return nil, err
	}
	caps := e.Capacities(w)
	capacity := caps[len(caps)/2]

	t := report.NewTable(
		fmt.Sprintf("Extended policy lineup — DFN workload, %.0f MB cache", float64(capacity)/bytesPerMB),
		"Policy", "HR", "BHR", "mm BHR", "Evictions")
	rates := make(map[string]*core.Result, len(baselineLineup))
	for _, spec := range baselineLineup {
		parsed, err := policy.ParseSpec(spec)
		if err != nil {
			return nil, err
		}
		f, err := policy.NewFactory(parsed)
		if err != nil {
			return nil, err
		}
		sim, err := core.NewSimulator(w, core.Config{Capacity: capacity, Policy: f})
		if err != nil {
			return nil, err
		}
		r := sim.Run(w)
		rates[f.Name] = r
		t.AddRowf(r.Policy, r.Overall.HitRate(), r.Overall.ByteHitRate(),
			r.ByClass[doctype.MultiMedia].ByteHitRate(), r.Evictions)
	}

	hr := func(name string) float64 { return rates[name].Overall.HitRate() }
	checks := []ShapeCheck{
		{
			Name:   "LRU beats FIFO (recency information pays)",
			Pass:   hr("LRU") >= hr("FIFO")-comparisonSlack,
			Detail: fmt.Sprintf("HR %.4f vs %.4f", hr("LRU"), hr("FIFO")),
		},
		{
			Name:   "SLRU beats LRU (scan resistance pays)",
			Pass:   hr("SLRU") >= hr("LRU")-comparisonSlack,
			Detail: fmt.Sprintf("HR %.4f vs %.4f", hr("SLRU"), hr("LRU")),
		},
		{
			Name: "GDSF(P) lands between GDS(P) and GD*(P) in hit rate",
			Pass: hr("GDSF(P)") >= hr("GDS(P)")-comparisonSlack &&
				hr("GD*(P)") >= hr("GDSF(P)")-comparisonSlack,
			Detail: fmt.Sprintf("HR: GDS(P) %.4f ≤ GDSF(P) %.4f ≤ GD*(P) %.4f",
				hr("GDS(P)"), hr("GDSF(P)"), hr("GD*(P)")),
		},
		{
			Name: "SIZE maximizes neither rate (size-only is not enough)",
			Pass: hr("SIZE") <= hr("GD*(1)") &&
				rates["SIZE"].Overall.ByteHitRate() <= rates["LRU"].Overall.ByteHitRate(),
			Detail: fmt.Sprintf("SIZE HR %.4f, BHR %.4f", hr("SIZE"),
				rates["SIZE"].Overall.ByteHitRate()),
		},
		{
			Name: "TypeAware recovers multi-media byte hit rate over GD*(1)",
			Pass: rates["TA[GD*(1)]"].ByClass[doctype.MultiMedia].ByteHitRate() >=
				rates["GD*(1)"].ByClass[doctype.MultiMedia].ByteHitRate()-comparisonSlack,
			Detail: fmt.Sprintf("mm BHR %.4f vs %.4f",
				rates["TA[GD*(1)]"].ByClass[doctype.MultiMedia].ByteHitRate(),
				rates["GD*(1)"].ByClass[doctype.MultiMedia].ByteHitRate()),
		},
	}
	return &Output{
		ID:     Baselines,
		Title:  "Extra — extended policy lineup (related work + extension)",
		Tables: []*TableArtifact{artifact(t)},
		Checks: checks,
		Notes: []string{
			e.scaleNote(),
			"extension beyond the paper: the six study configurations plus FIFO, SIZE, LFU, SLRU, GDSF, and TypeAware",
		},
	}, nil
}
