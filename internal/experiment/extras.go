package experiment

import (
	"fmt"

	"webcachesim/internal/admission"
	"webcachesim/internal/analyze"
	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
	"webcachesim/internal/report"
	"webcachesim/internal/trace"
)

// Extra experiments that go beyond the paper's artifacts.
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

// filteredStream is a profile's characterization at the clients and above
// an institutional cache.
type filteredStream struct {
	profile       string
	before, after *analyze.Characterization
}

// missReader passes on the requests a cache does not hit.
type missReader struct {
	src   trace.Reader
	cache *core.StreamSimulator
}

func (m missReader) Next() (*trace.Request, error) {
	for {
		r, err := m.src.Next()
		if err != nil || !m.cache.Process(r).Hit() {
			return r, err
		}
	}
}

// filtered pushes a profile's stream through an institutional LRU child
// cache of 2 % of the trace and characterizes the miss stream — the trace
// an upper-level proxy like DFN's or RTP's would record.
func filtered(profile string) input[*filteredStream] {
	return cached("filtered/"+profile, func(e *Env) (*filteredStream, error) {
		t, err := traceOf(profile)(e)
		if err != nil {
			return nil, err
		}
		child, err := core.NewStreamSimulator(core.Config{
			Capacity: t.workload.CapacityAt(2, core.FloorMB),
			Policy:   policy.MustFactory(policy.Spec{Scheme: "lru"}),
		}, 0)
		if err != nil {
			return nil, err
		}
		g, err := e.generator(profile)
		if err != nil {
			return nil, err
		}
		misses, err := core.BuildWorkload(missReader{g.Reader(), child}, 0)
		if err != nil {
			return nil, err
		}
		return &filteredStream{profile, t.chars, analyze.Characterize(misses, profile+"-filtered")}, nil
	})
}

// flattens claims that filtering lowers a profile's image popularity
// index.
func flattens(profile string) claim {
	return pred(profile+": filtering flattens image popularity (α drops)", filtered(profile),
		func(f *filteredStream) (bool, string) {
			before, after := f.before.Classes[img], f.after.Classes[img]
			return before.AlphaOK && after.AlphaOK && after.Alpha < before.Alpha,
				fmt.Sprintf("α %.3f → %.3f over a 2%%-of-trace child cache", before.Alpha, after.Alpha)
		})
}

var filtering = experiment{
	id:    Filtering,
	extra: true,
	title: "Extra — why upper-level traces look like §2: stream filtering",
	notes: []string{"extension beyond the paper: reproduces the filtered-stream origin of the DFN/RTP workload characteristics"},
	build: from(both(filtered), func(streams [2]*filteredStream) artifacts {
		t := report.NewTable("Stream filtering through an institutional cache",
			"", "requests", "image α", "image β", "mm+app data %")
		for _, f := range streams {
			for _, row := range []struct {
				where string
				c     *analyze.Characterization
			}{{" at the clients", f.before}, {" above the cache", f.after}} {
				image := row.c.Classes[img]
				t.AddRowf(f.profile+row.where, row.c.Requests, analyze.IndexCell(image.Alpha, image.AlphaOK),
					analyze.IndexCell(image.Beta, image.BetaOK), mmApp(row.c.PctReqBytes))
			}
		}
		return tables(t)
	}),
	claims: []claim{flattens("dfn"), flattens("rtp")},
}

// atOneSize is a set of simulations of the DFN workload at one cache size.
type atOneSize struct {
	capacity int64
	results  []*core.Result
	// grid indexes results by display name.
	grid *core.Grid
}

func (s *atOneSize) at(name string) *core.Result { return s.grid.At(name, s.capacity) }
func (s *atOneSize) capMB() float64              { return float64(s.capacity) / bytesPerMB }

// admissions sweeps the paper's six configurations under every admission
// filter at the smallest swept cache size. At that size the cache cannot
// hold the working set, so an admission filter that keeps one-hit wonders
// out of the cache is the cheapest way to protect the documents that will
// be re-referenced — the per-type tables show which document classes that
// protection reaches.
var admissions = cached("admissions", func(e *Env) (*atOneSize, error) {
	w, err := e.Workload("dfn")
	if err != nil {
		return nil, err
	}
	s := &atOneSize{capacity: e.Capacities(w)[0]}
	s.results, err = core.Sweep(w, core.SweepConfig{
		Policies:   policy.StudyFactories(),
		Admissions: admission.Specs(),
		Capacities: []int64{s.capacity},
	})
	if err != nil {
		return nil, err
	}
	s.grid = core.NewGrid(s.results, func(r *core.Result) string { return r.Policy + "|" + r.AdmissionName() })
	return s, nil
})

var admissionGrid = experiment{
	id:    AdmissionGrid,
	extra: true,
	title: "Extra — admission filters × replacement schemes at the smallest cache size",
	notes: []string{"extension beyond the paper: ghost-directed admission (TinyLFU, ARC-ghost) composed with the six study configurations; see docs/ADMISSION.md"},
	build: from(admissions, func(s *atOneSize) artifacts {
		overall := report.NewTable(
			fmt.Sprintf("Admission grid — DFN workload, %.0f MB cache", s.capMB()),
			"Policy", "Admission", "HR", "BHR", "Rejects", "Ghost hits")
		for _, r := range s.results {
			overall.AddRowf(r.Policy, r.AdmissionName(), r.Overall.HitRate(),
				r.Overall.ByteHitRate(), r.AdmissionRejects, r.GhostHits)
		}
		art := tables(overall)
		for _, cl := range doctype.Classes {
			ct := report.NewTable(
				fmt.Sprintf("%s — HR/BHR by policy × admission, %.0f MB cache", cl, s.capMB()),
				"Policy", "Admission", "HR", "BHR", "Requests")
			for _, r := range s.results {
				c := r.ByClass[cl]
				ct.AddRowf(r.Policy, r.AdmissionName(), c.HitRate(), c.ByteHitRate(), c.Requests)
			}
			art.tables = append(art.tables, ct)
		}
		return art
	}),
	claims: []claim{
		// TinyLFU must lift the hit rate of at least one (scheme, doc type)
		// cell over unfiltered admission; the detail is the largest lift.
		pred("TinyLFU lifts some document type's hit rate over unfiltered admission", admissions,
			func(s *atOneSize) (bool, string) {
				bestLift, bestCell := 0.0, "none found"
				for _, f := range policy.StudyFactories() {
					none, tiny := s.at(f.Name+"|none"), s.at(f.Name+"|tinylfu")
					for _, cl := range doctype.Classes {
						was, is := none.ByClass[cl].HitRate(), tiny.ByClass[cl].HitRate()
						if is-was > bestLift {
							bestLift = is - was
							bestCell = fmt.Sprintf("%s/%s HR %.4f → %.4f", f.Name, cl, was, is)
						}
					}
				}
				return bestLift > 0, bestCell
			}),
		pred("TinyLFU actually filters (rejections observed at the smallest cache size)", admissions,
			func(s *atOneSize) (bool, string) {
				var rejects int64
				for _, f := range policy.StudyFactories() {
					rejects += s.at(f.Name + "|tinylfu").AdmissionRejects
				}
				return rejects > 0, fmt.Sprintf("%d rejected inserts across the six schemes", rejects)
			}),
	},
}

// baselineLineup is the related-work roundup: spec strings in
// presentation order.
var baselineLineup = []string{
	"lru", "lfuda", "gds:1", "gdstar:1", "gds:p", "gdstar:p",
	"gdsf:p", "slru", "fifo", "size", "lfu", "typeaware+gdstar:1",
}

// lineup sweeps the extended policy lineup on the DFN workload at a
// mid-grid cache size.
var lineup = cached("lineup", func(e *Env) (*atOneSize, error) {
	w, err := e.Workload("dfn")
	if err != nil {
		return nil, err
	}
	caps := e.Capacities(w)
	s := &atOneSize{capacity: caps[len(caps)/2]}
	var factories []policy.Factory
	for _, spec := range baselineLineup {
		parsed, err := policy.ParseSpec(spec)
		if err != nil {
			return nil, err
		}
		f, err := policy.NewFactory(parsed)
		if err != nil {
			return nil, err
		}
		factories = append(factories, f)
	}
	s.results, err = core.Sweep(w, core.SweepConfig{Policies: factories, Capacities: []int64{s.capacity}})
	if err != nil {
		return nil, err
	}
	s.grid = core.NewGrid(s.results, nil)
	return s, nil
})

var baselines = experiment{
	id:    Baselines,
	extra: true,
	title: "Extra — extended policy lineup (related work + extension)",
	notes: []string{"extension beyond the paper: the six study configurations plus FIFO, SIZE, LFU, SLRU, GDSF, and TypeAware"},
	build: from(lineup, func(s *atOneSize) artifacts {
		t := report.NewTable(
			fmt.Sprintf("Extended policy lineup — DFN workload, %.0f MB cache", s.capMB()),
			"Policy", "HR", "BHR", "mm BHR", "Evictions")
		for _, r := range s.results {
			t.AddRowf(r.Policy, r.Overall.HitRate(), r.Overall.ByteHitRate(), byteHitRate(mm)(r), r.Evictions)
		}
		return tables(t)
	}),
	claims: []claim{
		atLeast("LRU beats FIFO (recency information pays)", "LRU", "FIFO"),
		atLeast("SLRU beats LRU (scan resistance pays)", "SLRU", "LRU"),
		pred("GDSF(P) lands between GDS(P) and GD*(P) in hit rate", lineup, func(s *atOneSize) (bool, string) {
			gds, gdsf, gdstar := overallHitRate(s.at("GDS(P)")), overallHitRate(s.at("GDSF(P)")), overallHitRate(s.at("GD*(P)"))
			return gdsf >= gds-comparisonSlack && gdstar >= gdsf-comparisonSlack,
				fmt.Sprintf("HR: GDS(P) %.4f ≤ GDSF(P) %.4f ≤ GD*(P) %.4f", gds, gdsf, gdstar)
		}),
		pred("SIZE maximizes neither rate (size-only is not enough)", lineup, func(s *atOneSize) (bool, string) {
			hr, bhr := overallHitRate(s.at("SIZE")), overallByteHitRate(s.at("SIZE"))
			return hr <= overallHitRate(s.at("GD*(1)")) && bhr <= overallByteHitRate(s.at("LRU")),
				fmt.Sprintf("SIZE HR %.4f, BHR %.4f", hr, bhr)
		}),
		pred("TypeAware recovers multi-media byte hit rate over GD*(1)", lineup, func(s *atOneSize) (bool, string) {
			ta, gd := byteHitRate(mm)(s.at("TA[GD*(1)]")), byteHitRate(mm)(s.at("GD*(1)"))
			return ta >= gd-comparisonSlack, fmt.Sprintf("mm BHR %.4f vs %.4f", ta, gd)
		}),
	},
}

// atLeast claims that policy a's overall hit rate on the lineup is at
// least b's, within slack.
func atLeast(name, a, b string) claim {
	return pred(name, lineup, func(s *atOneSize) (bool, string) {
		ha, hb := overallHitRate(s.at(a)), overallHitRate(s.at(b))
		return ha >= hb-comparisonSlack, fmt.Sprintf("HR %.4f vs %.4f", ha, hb)
	})
}
