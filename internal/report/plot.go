package report

import (
	"cmp"
	"math"
	"slices"
)

// Series is one line of a plot.
type Series struct {
	// Name labels the series in the legend.
	Name string
	// X and Y are the data points, parallel slices.
	X []float64
	Y []float64
}

// Plot is a multi-series line chart, one of the paper's figures; SVG
// draws it. The y range adapts to the data with a zero floor.
type Plot struct {
	// Title is drawn above the chart.
	Title string
	// XLabel and YLabel annotate the axes.
	XLabel, YLabel string
	// LogX plots the x axis on a log10 scale (cache sizes span decades).
	LogX bool

	series []Series // each by ascending X
}

// Add appends a series; points with non-finite coordinates are dropped,
// and the rest are kept by ascending X, the order SVG draws them in.
func (p *Plot) Add(s Series) {
	type point struct{ x, y float64 }
	var pts []point
	for i := range min(len(s.X), len(s.Y)) {
		if isFinite(s.X[i]) && isFinite(s.Y[i]) {
			pts = append(pts, point{s.X[i], s.Y[i]})
		}
	}
	slices.SortStableFunc(pts, func(a, b point) int { return cmp.Compare(a.x, b.x) })
	clean := Series{Name: s.Name}
	for _, pt := range pts {
		clean.X = append(clean.X, pt.x)
		clean.Y = append(clean.Y, pt.y)
	}
	p.series = append(p.series, clean)
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// axes returns the ranges SVG maps onto: x in xCoord's space
// and y, each the data's extent, y floored at zero, and a degenerate range
// widened to one unit. ok is false when no series has a point.
func (p *Plot) axes() (xMin, xMax, yMin, yMax float64, ok bool) {
	xMin, xMax = math.Inf(1), math.Inf(-1)
	yMin, yMax = math.Inf(1), math.Inf(-1)
	for _, s := range p.series {
		for i := range s.X {
			ok = true
			x := p.xCoord(s.X[i])
			xMin, xMax = math.Min(xMin, x), math.Max(xMax, x)
			yMin, yMax = math.Min(yMin, s.Y[i]), math.Max(yMax, s.Y[i])
		}
	}
	if yMin > 0 {
		yMin = 0
	}
	if yMax <= yMin {
		yMax = yMin + 1
	}
	if xMax <= xMin {
		xMax = xMin + 1
	}
	return xMin, xMax, yMin, yMax, ok
}

func (p *Plot) xCoord(x float64) float64 {
	if p.LogX && x > 0 {
		return math.Log10(x)
	}
	return x
}
