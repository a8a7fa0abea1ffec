package experiment

import (
	"fmt"
	"time"

	"webcachesim/internal/analyze"
	"webcachesim/internal/doctype"
	"webcachesim/internal/report"
)

const bytesPerGB = 1 << 30

func tables(t ...*report.Table) artifacts { return artifacts{tables: t} }

// table1 regenerates Table 1: overall properties of both traces.
var table1 = experiment{
	id:    Table1,
	title: "Table 1 — trace properties",
	notes: []string{"paper totals at full scale: DFN 2,987,565 docs / 6,718,201 requests; RTP 2,227,339 docs / 4,144,900 requests"},
	build: from(both(chars), func(c [2]*analyze.Characterization) artifacts {
		dfn, rtp := c[0], c[1]
		t := report.NewTable("Table 1. Properties of DFN and RTP trace", "", "DFN", "RTP")
		period := func(c *analyze.Characterization) string {
			from := time.UnixMilli(c.StartMillis).UTC().Format("2006-01-02")
			to := time.UnixMilli(c.EndMillis).UTC().Format("2006-01-02")
			return from + ".." + to
		}
		t.AddRow("Date", period(dfn), period(rtp))
		t.AddRowf("Distinct Documents", dfn.DistinctDocs, rtp.DistinctDocs)
		t.AddRowf("Overall Size (GB)", float64(dfn.DistinctBytes)/bytesPerGB, float64(rtp.DistinctBytes)/bytesPerGB)
		t.AddRowf("Total Requests", dfn.Requests, rtp.Requests)
		t.AddRowf("Requested Data (GB)", float64(dfn.ReqBytes)/bytesPerGB, float64(rtp.ReqBytes)/bytesPerGB)
		return tables(t)
	}),
	claims: []claim{
		pred("DFN has more requests than RTP (paper: 6.7M vs 4.1M)", both(chars),
			func(c [2]*analyze.Characterization) (bool, string) {
				dfn, rtp := float64(c[0].Requests), float64(c[1].Requests)
				return dfn > rtp, fmt.Sprintf("%.4g vs %.4g", dfn, rtp)
			}),
		pred("RTP has more distinct documents per request than DFN (paper: 0.54 vs 0.44)", both(chars),
			func(c [2]*analyze.Characterization) (bool, string) {
				dfn := safeDiv(float64(c[0].DistinctDocs), float64(c[0].Requests))
				rtp := safeDiv(float64(c[1].DistinctDocs), float64(c[1].Requests))
				return rtp > dfn, fmt.Sprintf("docs/request: RTP %.3f vs DFN %.3f", rtp, dfn)
			}),
	},
}

// classMix regenerates Table 2 (DFN) or Table 3 (RTP).
func classMix(id ID, profile, title string) experiment {
	share := func(f func(doctype.Class) float64, a, b doctype.Class) float64 { return f(a) + f(b) }
	return experiment{
		id:    id,
		title: title,
		build: from(chars(profile), func(c *analyze.Characterization) artifacts {
			return tables(c.ClassMixTable(title))
		}),
		claims: []claim{
			pred("HTML+images ≈95% of requests", chars(profile), func(c *analyze.Characterization) (bool, string) {
				v := share(c.PctRequests, doctype.Image, doctype.HTML)
				return v > 88, fmt.Sprintf("measured %.1f%%", v)
			}),
			pred("HTML+images ≈95% of distinct documents", chars(profile), func(c *analyze.Characterization) (bool, string) {
				v := share(c.PctDistinctDocs, doctype.Image, doctype.HTML)
				return v > 88, fmt.Sprintf("measured %.1f%%", v)
			}),
			pred("multi media+application: small request share, large data share", chars(profile),
				func(c *analyze.Characterization) (bool, string) {
					reqs := share(c.PctRequests, doctype.MultiMedia, doctype.Application)
					data := share(c.PctReqBytes, doctype.MultiMedia, doctype.Application)
					return reqs < 12 && data > 25,
						fmt.Sprintf("requests %.1f%%, data %.1f%% (paper: ≈5%% and >40%%)", reqs, data)
				}),
		},
	}
}

// locality regenerates Table 4 (DFN) or Table 5 (RTP).
func locality(id ID, profile, title string) experiment {
	// Each claim reads the four named classes' summaries.
	on := func(name string, holds func(img, html, mm, app analyze.ClassSummary) (bool, string)) claim {
		return pred(name, chars(profile), func(c *analyze.Characterization) (bool, string) {
			return holds(c.Classes[doctype.Image], c.Classes[doctype.HTML],
				c.Classes[doctype.MultiMedia], c.Classes[doctype.Application])
		})
	}
	return experiment{
		id:    id,
		title: title,
		notes: []string{"CoV of the synthetic sizes follows the lognormal fit to the paper's mean/median (see DESIGN.md)"},
		build: from(chars(profile), func(c *analyze.Characterization) artifacts {
			return tables(c.LocalityTable(title,
				"Slope of Popularity Distribution α", "Degree of Temporal Correlations β"))
		}),
		claims: []claim{
			on("multi media has the largest mean and median transfer sizes",
				func(_, html, mm, app analyze.ClassSummary) (bool, string) {
					return mm.MeanTransferKB > app.MeanTransferKB &&
							mm.MeanTransferKB > html.MeanTransferKB &&
							mm.MedianTransferKB > app.MedianTransferKB,
						fmt.Sprintf("mean KB: mm %.0f, app %.0f, html %.1f",
							mm.MeanTransferKB, app.MeanTransferKB, html.MeanTransferKB)
				}),
			on("application documents: large mean but very small median size",
				func(_, _, _, app analyze.ClassSummary) (bool, string) {
					return app.MeanDocKB > 5*app.MedianDocKB,
						fmt.Sprintf("mean %.0f KB vs median %.1f KB", app.MeanDocKB, app.MedianDocKB)
				}),
			on("α largest for images, smaller for multi media/application",
				func(img, _, mm, app analyze.ClassSummary) (bool, string) {
					return img.AlphaOK && mm.AlphaOK && app.AlphaOK &&
							img.Alpha > mm.Alpha-0.05 && img.Alpha > app.Alpha-0.05,
						fmt.Sprintf("α: images %.2f, mm %.2f, app %.2f", img.Alpha, mm.Alpha, app.Alpha)
				}),
			on("β shows the inverse trend: multi media/application above images",
				func(img, _, mm, app analyze.ClassSummary) (bool, string) {
					return img.BetaOK && mm.BetaOK &&
							mm.Beta > img.Beta && (!app.BetaOK || app.Beta > img.Beta-0.1),
						fmt.Sprintf("β: images %.2f, mm %.2f", img.Beta, mm.Beta)
				}),
		},
	}
}
