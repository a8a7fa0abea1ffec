package experiment

import (
	"fmt"

	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
	"webcachesim/internal/report"
)

const bytesPerMB = 1 << 20

// namedClasses are the four classes the paper's figures cover.
var namedClasses = doctype.Classes[:doctype.NumClasses-1]

// study is a profile's policy × cache-size grid: the six study
// configurations over the configured capacities. Figures 2 and 3 and the
// §4.4 summary all read the same grid.
func study(profile string) input[*core.Grid] {
	return cached("study/"+profile, func(e *Env) (*core.Grid, error) {
		w, err := e.Workload(profile)
		if err != nil {
			return nil, err
		}
		results, err := core.Sweep(w, core.SweepConfig{
			Policies:   policy.StudyFactories(),
			Capacities: e.Capacities(w),
		})
		if err != nil {
			return nil, err
		}
		return core.NewGrid(results, nil), nil
	})
}

// figure renders a policy line-up from a grid: per class, one table of hit
// rates and byte hit rates across the capacities, and the two curves.
func figure(g *core.Grid, policies []string, title string) artifacts {
	var art artifacts
	for _, cl := range namedClasses {
		header := []string{"Cache (MB)"}
		for _, p := range policies {
			header = append(header, p+" HR", p+" BHR")
		}
		t := report.NewTable(cl.String(), header...)
		for _, c := range g.Capacities {
			row := []any{fmt.Sprintf("%.0f", float64(c)/bytesPerMB)}
			for _, p := range policies {
				row = append(row, g.Value(p, c, hitRate(cl)), g.Value(p, c, byteHitRate(cl)))
			}
			t.AddRowf(row...)
		}
		art.tables = append(art.tables, t)

		for _, side := range []struct {
			name string
			m    measure
		}{
			{"Hit Rate", hitRate(cl)},
			{"Byte Hit Rate", byteHitRate(cl)},
		} {
			p := &report.Plot{
				Title:  fmt.Sprintf("%s — %s — %s", title, cl, side.name),
				XLabel: "cache size (MB, log)",
				YLabel: side.name,
				LogX:   true,
			}
			for _, pol := range policies {
				mb, ys := g.CurveMB(pol, side.m)
				p.Add(report.Series{Name: pol, X: mb, Y: ys})
			}
			art.plots = append(art.plots, p)
		}
	}
	return art
}

// constantCostPolicies and packetCostPolicies are the line-ups of
// Figures 2 and 3.
var (
	constantCostPolicies = []string{"LRU", "LFU-DA", "GDS(1)", "GD*(1)"}
	packetCostPolicies   = []string{"LRU", "LFU-DA", "GDS(P)", "GD*(P)"}
)

const (
	img  = doctype.Image
	html = doctype.HTML
	mm   = doctype.MultiMedia
	app  = doctype.Application
)

// figure2 regenerates Figure 2: DFN trace, constant cost model, per-class
// hit rates and byte hit rates across cache sizes.
var figure2 = experiment{
	id:    Figure2,
	title: "Figure 2 — DFN, constant cost: per-type hit rate and byte hit rate",
	build: from(study("dfn"), func(g *core.Grid) artifacts {
		return figure(g, constantCostPolicies, "Fig 2 DFN const")
	}),
	claims: []claim{
		// Frequency-based schemes beat recency-based schemes in hit rate.
		beats("LFU-DA outperforms LRU in hit rate (images)", "dfn", "LFU-DA", "LRU", hitRate(img)),
		beats("GD*(1) outperforms GDS(1) in hit rate (images)", "dfn", "GD*(1)", "GDS(1)", hitRate(img)),
		beats("GD*(1) outperforms GDS(1) in hit rate (application)", "dfn", "GD*(1)", "GDS(1)", hitRate(app)),
		// Size-aware schemes beat size-oblivious schemes in hit rate for
		// small-document classes.
		beats("GD*(1) outperforms LRU in hit rate (images)", "dfn", "GD*(1)", "LRU", hitRate(img)),
		beats("GD*(1) outperforms LFU-DA in hit rate (HTML)", "dfn", "GD*(1)", "LFU-DA", hitRate(html)),
		// Multi media inverts: the size-oblivious schemes win, GD*(1)
		// performs worst.
		beats("LRU outperforms GD*(1) in hit rate (multi media)", "dfn", "LRU", "GD*(1)", hitRate(mm)),
		beats("LFU-DA outperforms GD*(1) in byte hit rate (multi media)", "dfn", "LFU-DA", "GD*(1)", byteHitRate(mm)),
		beats("GDS(1) outperforms GD*(1) in hit rate (multi media)", "dfn", "GDS(1)", "GD*(1)", hitRate(mm)),
		// GD*(1)'s poor multi-media byte hit rate drags its overall BHR
		// below LRU's (the paper's deviation from Jin & Bestavros).
		beats("LRU outperforms GD*(1) in overall byte hit rate", "dfn", "LRU", "GD*(1)", overallByteHitRate),
	},
}

// figure3 regenerates Figure 3: DFN trace, packet cost model. The grid
// includes the constant-cost variants so the paper's cross-figure
// comparisons (§4.3, third experiment) can be evaluated.
var figure3 = experiment{
	id:    Figure3,
	title: "Figure 3 — DFN, packet cost: per-type hit rate and byte hit rate",
	build: from(study("dfn"), func(g *core.Grid) artifacts {
		return figure(g, packetCostPolicies, "Fig 3 DFN packet")
	}),
	claims: []claim{
		// GD*(P) dominates overall.
		beats("GD*(P) outperforms GDS(P) in overall hit rate", "dfn", "GD*(P)", "GDS(P)", overallHitRate),
		beats("GD*(P) outperforms LRU in overall byte hit rate", "dfn", "GD*(P)", "LRU", overallByteHitRate),
		beats("GD*(P) outperforms LFU-DA in overall byte hit rate", "dfn", "GD*(P)", "LFU-DA", overallByteHitRate),
		// Per-class hit-rate advantages.
		beats("GD*(P) best hit rate (images)", "dfn", "GD*(P)", "LRU", hitRate(img)),
		beats("GD*(P) best hit rate (HTML)", "dfn", "GD*(P)", "LFU-DA", hitRate(html)),
		beats("GD*(P) best hit rate (application)", "dfn", "GD*(P)", "GDS(P)", hitRate(app)),
		// Per-class byte-hit-rate advantages.
		beats("GD*(P) higher byte hit rate than GDS(P) (images)", "dfn", "GD*(P)", "GDS(P)", byteHitRate(img)),
		beats("GD*(P) higher byte hit rate than LRU (multi media)", "dfn", "GD*(P)", "LRU", byteHitRate(mm)),
		// Cross-figure: packet cost stops discriminating large documents.
		beats("GD*(P) beats GD*(1) in byte hit rate (multi media)", "dfn", "GD*(P)", "GD*(1)", byteHitRate(mm)),
		beats("GD*(P) beats GD*(1) in byte hit rate (HTML)", "dfn", "GD*(P)", "GD*(1)", byteHitRate(html)),
		beats("GD*(P) beats GD*(1) in hit rate (multi media)", "dfn", "GD*(P)", "GD*(1)", hitRate(mm)),
	},
}
