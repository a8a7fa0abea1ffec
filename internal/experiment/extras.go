package experiment

import (
	"fmt"

	"webcachesim/internal/admission"
	"webcachesim/internal/analyze"
	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
	"webcachesim/internal/report"
	"webcachesim/internal/synth"
	"webcachesim/internal/trace"
)

// Extra experiments that go beyond the paper's artifacts.
const (
	// Filtering reproduces the mechanism behind §2's workload properties:
	// a child cache filters the stream an upper-level proxy records,
	// flattening its popularity distribution.
	Filtering ID = "filtering"
	// Baselines is the related-work roundup (Arlitt et al. [1]): the
	// paper's six configurations plus FIFO, SIZE, LFU, SLRU, GDSF, the
	// TypeAware extension and GD*(1) at fixed β, at a mid-grid cache size.
	Baselines ID = "baselines"
	// Modification replays DFN without recorded sizes under §4.1's 5 %
	// modification rule and under Jin & Bestavros' any size change.
	Modification ID = "modification"
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

// passing passes on the requests of src that pass, which may also rewrite
// them.
type passing struct {
	src  trace.Reader
	pass func(*trace.Request) bool
}

func (p passing) Next() (*trace.Request, error) {
	for {
		r, err := p.src.Next()
		if err != nil || p.pass(r) {
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
		misses, err := core.BuildWorkload(passing{g, func(r *trace.Request) bool { return !child.Process(r).Hit() }}, 0)
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

// baselineLineup is the related-work roundup in presentation order.
// GDSF(1) is GD*(1) at a fixed β = 1; the last row is GD*(1) at a fixed
// β = 0.5, which no spec spells.
var baselineLineup = func() []policy.Factory {
	var out []policy.Factory
	for _, spec := range []string{
		"lru", "lfuda", "gds:1", "gdstar:1", "gds:p", "gdstar:p", "gdsf:p", "slru",
		"fifo", "size", "lfu", "typeaware+gdstar:1", "typeaware+gdstar:p", "gdsf:1",
	} {
		parsed, err := policy.ParseSpec(spec)
		if err != nil {
			panic(err)
		}
		out = append(out, policy.MustFactory(parsed))
	}
	return append(out, policy.Factory{Name: halfBeta, New: func() policy.Policy { return policy.NewGDStar(nil, 0.5) }})
}()

const halfBeta = "GD*(1) beta=0.5"

// lineup sweeps the extended policy lineup on the DFN workload at a
// mid-grid cache size.
var lineup = cached("lineup", func(e *Env) (*atOneSize, error) {
	w, err := e.Workload("dfn")
	if err != nil {
		return nil, err
	}
	caps := e.Capacities(w)
	s := &atOneSize{capacity: caps[len(caps)/2]}
	s.results, err = core.Sweep(w, core.SweepConfig{Policies: baselineLineup, Capacities: []int64{s.capacity}})
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
	notes: []string{"extension beyond the paper: the six study configurations plus FIFO, SIZE, LFU, SLRU, GDSF, TypeAware, and GD*(1) at fixed β"},
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
		// Strict: a GD* whose estimator never fits keeps β = 1, as GDSF(1).
		pred("GD*(1)'s online β lands strictly between fixed β = 0.5 and β = 1 (GDSF(1)) in hit rate", lineup,
			func(s *atOneSize) (bool, string) {
				half, online, one := overallHitRate(s.at(halfBeta)), overallHitRate(s.at("GD*(1)")), overallHitRate(s.at("GDSF(1)"))
				return half > online && online > one, fmt.Sprintf("HR: β=0.5 %.4f > online %.4f > β=1 %.4f", half, online, one)
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

// sizeless drops a request's recorded document size, as a Squid log does,
// so the simulator infers sizes from transfers.
func sizeless(r *trace.Request) bool {
	r.DocSize = 0
	return true
}

// modificationRules sweeps the study schemes over sizeless DFN at 2 % of
// the trace, once per rule: [0] the paper's 5 % rule, [1] any size change.
var modificationRules = cached("modification", func(e *Env) (runs [2][]*core.Result, err error) {
	for i := 0; i < 2 && err == nil; i++ {
		var g *synth.Generator
		var w *core.Workload
		if g, err = e.generator("dfn"); err == nil {
			w, err = core.BuildWorkload(passing{g, sizeless}, []float64{0, -1}[i])
		}
		if err == nil {
			runs[i], err = core.Sweep(w, core.SweepConfig{Policies: policy.StudyFactories(),
				Capacities: []int64{w.CapacityAt(2, core.FloorMB)}})
		}
	}
	return runs, err
})

var modification = experiment{
	id:    Modification,
	extra: true,
	title: "Extra — §4.1's modification rule: 5 % vs any size change",
	notes: []string{"ablation of the paper's choice: DFN without recorded document sizes, as a Squid log carries it, at 2 % of the trace"},
	build: from(modificationRules, func(runs [2][]*core.Result) artifacts {
		t := report.NewTable("Modification rule — sizeless DFN workload", "Policy", "Rule", "Modifications", "HR", "BHR")
		for i := range runs[0] {
			for rule, r := range []*core.Result{runs[0][i], runs[1][i]} {
				t.AddRowf(r.Policy, [2]string{"5 %", "any change"}[rule], r.Modifications, r.Overall.HitRate(), r.Overall.ByteHitRate())
			}
		}
		return tables(t)
	}),
	claims: []claim{pred("any size change raises every scheme's modifications and lowers its byte hit rate", modificationRules,
		func(runs [2][]*core.Result) (bool, string) {
			pass := true
			for i, r := range runs[1] {
				pass = pass && r.Modifications > runs[0][i].Modifications && r.Overall.ByteHitRate() < runs[0][i].Overall.ByteHitRate()
			}
			paper, anyChange := runs[0][0], runs[1][0]
			return pass, fmt.Sprintf("LRU modifications %d → %d, BHR %.4f → %.4f",
				paper.Modifications, anyChange.Modifications, paper.Overall.ByteHitRate(), anyChange.Overall.ByteHitRate())
		})},
}
