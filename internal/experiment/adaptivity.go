package experiment

import (
	"fmt"
	"math"

	"webcachesim/internal/analyze"
	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
	"webcachesim/internal/report"
)

// figure1CapacityPct expresses the paper's 1 GB cache as a percentage of
// the DFN trace's ≈60 GB overall size.
const figure1CapacityPct = 1.7

// occupancy is the adaptivity study's measurement on one profile: GD*(1)
// and LRU at the Figure 1 cache size, with the per-class occupancy of the
// cache sampled over request time.
type occupancy struct {
	capacity int64
	// chars gives the workload shares the occupancy mix is read against.
	chars *analyze.Characterization
	// gd and lru are the two runs; their Occupancy series are aligned.
	gd, lru *core.Result
}

// Figure 1 plots 200 samples of the DFN run; the RTP repeat (§4.2)
// averages over 100, the resolution docs/report-scale1.txt was pinned at.
var dfnOccupancy, rtpOccupancy = occupancyOf("dfn", 200), occupancyOf("rtp", 100)

// occupancyOf runs the study on a profile, sampling the cache `samples`
// times over the trace.
func occupancyOf(profile string, samples int) input[*occupancy] {
	return cached("occupancy/"+profile, func(e *Env) (*occupancy, error) {
		w, err := e.Workload(profile)
		if err != nil {
			return nil, err
		}
		o := &occupancy{capacity: w.CapacityAt(figure1CapacityPct, core.FloorMB)}
		if o.chars, err = e.Characterization(profile); err != nil {
			return nil, err
		}
		for _, run := range []struct {
			spec policy.Spec
			into **core.Result
		}{
			{policy.Spec{Scheme: "gdstar", Cost: policy.ConstantCost{}}, &o.gd},
			{policy.Spec{Scheme: "lru"}, &o.lru},
		} {
			sim, err := core.NewSimulator(w, core.Config{
				Capacity:    o.capacity,
				Policy:      policy.MustFactory(run.spec),
				SampleEvery: max(int64(w.NumRequests()/samples), 1),
			})
			if err != nil {
				return nil, err
			}
			*run.into = sim.Run(w)
		}
		return o, nil
	})
}

// steady returns a run's steady-state occupancy mix: per class, the mean
// share of cached bytes (or documents) over the second half of the samples.
func steady(r *core.Result, byBytes bool) func(doctype.Class) float64 {
	return func(cl doctype.Class) float64 {
		samples := r.Occupancy[len(r.Occupancy)/2:]
		var sum float64
		for _, s := range samples {
			if byBytes {
				sum += s.ByteFraction(cl)
			} else {
				sum += s.DocFraction(cl)
			}
		}
		return safeDiv(sum, float64(len(samples)))
	}
}

// mmApp adds a per-class share over the two large-document classes.
func mmApp(f func(doctype.Class) float64) float64 { return f(mm) + f(app) }

// separates claims that GD*(1) holds a smaller share of its bytes in the
// two large-document classes than LRU does.
func separates(name string, in input[*occupancy], label string) claim {
	return pred(name, in, func(o *occupancy) (bool, string) {
		gd, lru := mmApp(steady(o.gd, true)), mmApp(steady(o.lru, true))
		return gd < lru, fmt.Sprintf("%s cached bytes: GD*(1) %.1f%% vs LRU %.1f%%", label, gd, lru)
	})
}

// figure1 regenerates Figure 1: the adaptivity study on the DFN workload.
var figure1 = experiment{
	id:    Figure1,
	title: "Figure 1 — occupation of the web cache by document type (GD*(1) vs LRU)",
	build: from(dfnOccupancy, func(o *occupancy) artifacts {
		var art artifacts
		// One plot per (class, docs|bytes) with both policies plus the
		// request-mix reference level.
		for _, cl := range namedClasses {
			for _, side := range []struct {
				name string
				frac func(core.OccupancySample) float64
				ref  float64
			}{
				{"fraction of cached documents (%)",
					func(s core.OccupancySample) float64 { return s.DocFraction(cl) }, o.chars.PctRequests(cl)},
				{"fraction of cached bytes (%)",
					func(s core.OccupancySample) float64 { return s.ByteFraction(cl) }, o.chars.PctReqBytes(cl)},
			} {
				p := &report.Plot{
					Title:  fmt.Sprintf("Fig 1 — %s — %s", cl, side.name),
					XLabel: "requests processed",
					YLabel: side.name,
				}
				for _, r := range []*core.Result{o.gd, o.lru} {
					xs := make([]float64, 0, len(r.Occupancy))
					ys := make([]float64, 0, len(r.Occupancy))
					for _, s := range r.Occupancy {
						xs = append(xs, float64(s.Request))
						ys = append(ys, side.frac(s))
					}
					p.Add(report.Series{Name: r.Policy, X: xs, Y: ys})
				}
				// Constant reference line: the class's share of the request
				// stream (documents) or of the requested data (bytes).
				if n := len(o.gd.Occupancy); n > 0 {
					xs := []float64{float64(o.gd.Occupancy[0].Request), float64(o.gd.Occupancy[n-1].Request)}
					p.Add(report.Series{Name: "workload share", X: xs, Y: []float64{side.ref, side.ref}})
				}
				art.plots = append(art.plots, p)
			}
		}

		// Summary table: steady-state occupancy mix against the workload
		// shares.
		capMB := float64(o.capacity) / bytesPerMB
		t := report.NewClassTable(fmt.Sprintf("Figure 1 summary — steady-state cache occupancy at %.0f MB", capMB))
		report.ClassRow(t, "% of requests (workload)", o.chars.PctRequests)
		report.ClassRow(t, "% of requested data (workload)", o.chars.PctReqBytes)
		report.ClassRow(t, "% of cached docs, GD*(1)", steady(o.gd, false))
		report.ClassRow(t, "% of cached docs, LRU", steady(o.lru, false))
		report.ClassRow(t, "% of cached bytes, GD*(1)", steady(o.gd, true))
		report.ClassRow(t, "% of cached bytes, LRU", steady(o.lru, true))
		art.tables = []*report.Table{t}
		art.notes = []string{fmt.Sprintf("cache size %.0f MB ≈ %.1f%% of overall trace size (the paper's 1 GB on ≈60 GB)",
			capMB, figure1CapacityPct)}
		return art
	}),
	// GD*(1) refuses to spend cache bytes on large multi-media/application
	// documents; LRU's byte mix instead tracks the requested-data mix.
	claims: []claim{
		// §4.2: "Similar results have been observed for the RTP trace."
		separates("the adaptivity separation repeats on the RTP trace (§4.2)", rtpOccupancy, "RTP mm+app"),
		separates("GD*(1) does not waste cache bytes on multi media/application", dfnOccupancy, "mm+app"),
		pred("LRU's byte mix tracks the requested-data mix", dfnOccupancy,
			func(o *occupancy) (bool, string) {
				gd, lru, want := mmApp(steady(o.gd, true)), mmApp(steady(o.lru, true)), mmApp(o.chars.PctReqBytes)
				return math.Abs(lru-want) < math.Abs(gd-want)+10,
					fmt.Sprintf("mm+app: workload %.1f%%, LRU %.1f%%, GD*(1) %.1f%%", want, lru, gd)
			}),
		pred("GD*(1) keeps at least LRU's share of image documents", dfnOccupancy,
			func(o *occupancy) (bool, string) {
				gd, lru := steady(o.gd, false)(img), steady(o.lru, false)(img)
				return gd >= lru-2, fmt.Sprintf("image cached docs: GD*(1) %.1f%% vs LRU %.1f%%", gd, lru)
			}),
	},
}

// rtpSummary reproduces Section 4.4: the comparative study on the RTP
// workload under both cost models, where GD*'s per-type advantages
// diminish.
var rtpSummary = experiment{
	id:    RTP,
	title: "Section 4.4 — performance results for the RTP trace",
	notes: []string{"the paper reports this experiment as prose only (space limits); the tables above are the underlying sweep"},
	build: from(study("rtp"), func(g *core.Grid) artifacts {
		constant := figure(g, constantCostPolicies, "RTP const")
		packet := figure(g, packetCostPolicies, "RTP packet")
		return artifacts{
			tables: append(constant.tables, packet.tables...),
			plots:  append(constant.plots, packet.plots...),
		}
	}),
	claims: []claim{
		// Constant cost: same qualitative results as DFN.
		beats("RTP/const: GD*(1) still leads image hit rate", "rtp", "GD*(1)", "LRU", hitRate(img)),
		beats("RTP/const: LRU still leads multi-media hit rate", "rtp", "LRU", "GD*(1)", hitRate(mm)),
		// Packet cost: GD*(P)'s advantage shrinks relative to DFN.
		pred("GD*(P)'s image hit-rate advantage is smaller on RTP than on DFN", both(study),
			func(g [2]*core.Grid) (bool, string) {
				// Mean advantage of GD*(P) over the field on image hit rate.
				advantage := func(g *core.Grid) float64 {
					var sum float64
					for _, c := range g.Capacities {
						at := func(pol string) float64 { return g.Value(pol, c, hitRate(img)) }
						sum += at("GD*(P)") - (at("LRU")+at("LFU-DA")+at("GDS(P)"))/3
					}
					return safeDiv(sum, float64(len(g.Capacities)))
				}
				dfn, rtp := advantage(g[0]), advantage(g[1])
				return rtp < dfn+comparisonSlack, fmt.Sprintf("mean advantage: DFN %+.4f, RTP %+.4f", dfn, rtp)
			}),
		// Byte hit rate: GDS(P) stops losing to GD*(P) on RTP for the
		// correlation-heavy classes.
		beats("RTP/packet: GDS(P) at least matches GD*(P) in byte hit rate (HTML)",
			"rtp", "GDS(P)", "GD*(P)", byteHitRate(html)),
		beats("RTP/packet: GDS(P) at least matches GD*(P) in byte hit rate (application)",
			"rtp", "GDS(P)", "GD*(P)", byteHitRate(app)),
		beats("RTP/packet: GDS(P) at least matches GD*(P) in byte hit rate (multi media)",
			"rtp", "GDS(P)", "GD*(P)", byteHitRate(mm)),
	},
}
