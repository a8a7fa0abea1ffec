package report

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Series is one line of a plot.
type Series struct {
	// Name labels the series in the legend.
	Name string
	// X and Y are the data points, parallel slices.
	X []float64
	Y []float64
}

// Plot renders multi-series line charts on a character grid — enough to
// eyeball the shape of the paper's figures in a terminal or a code block.
// The y range adapts to the data with a zero floor.
type Plot struct {
	// Title is printed above the chart.
	Title string
	// XLabel and YLabel annotate the axes.
	XLabel, YLabel string
	// Height is the grid's height in characters (default 20); its width is
	// plotWidth.
	Height int
	// LogX plots the x axis on a log10 scale (cache sizes span decades).
	LogX bool

	series []Series // each by ascending X
}

// plotWidth is the ASCII grid's width in characters.
const plotWidth = 64

// seriesMarks assigns each series a distinct mark character.
var seriesMarks = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Add appends a series; points with non-finite coordinates are dropped,
// and the rest are kept by ascending X, the order both renderers draw in.
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

// axes returns the ranges both renderers map onto: x in xCoord's space
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

// Render draws the chart.
func (p *Plot) Render() string {
	width, height := plotWidth, p.Height
	if height <= 0 {
		height = 20
	}
	xMin, xMax, yMin, yMax, ok := p.axes()
	if !ok {
		return p.Title + "\n(no data)\n"
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	col := func(x float64) int {
		c := int(math.Round((p.xCoord(x) - xMin) / (xMax - xMin) * float64(width-1)))
		return clampInt(c, 0, width-1)
	}
	row := func(y float64) int {
		r := int(math.Round((y - yMin) / (yMax - yMin) * float64(height-1)))
		return clampInt(height-1-r, 0, height-1)
	}

	for si, s := range p.series {
		mark := seriesMarks[si%len(seriesMarks)]
		// Connect consecutive points with interpolated steps so curves
		// read as lines rather than scattered dots.
		type pt struct{ c, r int }
		pts := make([]pt, len(s.X))
		for i := range s.X {
			pts[i] = pt{c: col(s.X[i]), r: row(s.Y[i])}
		}
		for i := range pts {
			grid[pts[i].r][pts[i].c] = mark
			if i == 0 {
				continue
			}
			steps := absInt(pts[i].c-pts[i-1].c) + absInt(pts[i].r-pts[i-1].r)
			for st := 1; st < steps; st++ {
				f := float64(st) / float64(steps)
				c := pts[i-1].c + int(math.Round(f*float64(pts[i].c-pts[i-1].c)))
				r := pts[i-1].r + int(math.Round(f*float64(pts[i].r-pts[i-1].r)))
				if grid[r][c] == ' ' {
					grid[r][c] = '.'
				}
			}
		}
	}

	var sb strings.Builder
	if p.Title != "" {
		sb.WriteString(p.Title)
		sb.WriteByte('\n')
	}
	yTop := FormatFloat(yMax)
	yBottom := FormatFloat(yMin)
	labelWidth := len(yTop)
	if len(yBottom) > labelWidth {
		labelWidth = len(yBottom)
	}
	for r := 0; r < height; r++ {
		label := strings.Repeat(" ", labelWidth)
		if r == 0 {
			label = pad(yTop, labelWidth)
		}
		if r == height-1 {
			label = pad(yBottom, labelWidth)
		}
		sb.WriteString(label)
		sb.WriteString(" |")
		sb.Write(grid[r])
		sb.WriteByte('\n')
	}
	sb.WriteString(strings.Repeat(" ", labelWidth))
	sb.WriteString(" +")
	sb.WriteString(strings.Repeat("-", width))
	sb.WriteByte('\n')
	// X-axis end labels.
	lo, hi := p.xLabel(xMin), p.xLabel(xMax)
	gap := width - len(lo) - len(hi)
	if gap < 1 {
		gap = 1
	}
	sb.WriteString(strings.Repeat(" ", labelWidth+2))
	sb.WriteString(lo)
	sb.WriteString(strings.Repeat(" ", gap))
	sb.WriteString(hi)
	sb.WriteByte('\n')
	if p.XLabel != "" || p.YLabel != "" {
		fmt.Fprintf(&sb, "%s x: %s   y: %s\n", strings.Repeat(" ", labelWidth), p.XLabel, p.YLabel)
	}
	for si, s := range p.series {
		fmt.Fprintf(&sb, "%s  %c %s\n", strings.Repeat(" ", labelWidth), seriesMarks[si%len(seriesMarks)], s.Name)
	}
	return sb.String()
}

func (p *Plot) xCoord(x float64) float64 {
	if p.LogX && x > 0 {
		return math.Log10(x)
	}
	return x
}

func (p *Plot) xLabel(coord float64) string {
	if p.LogX {
		return FormatFloat(math.Pow(10, coord))
	}
	return FormatFloat(coord)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return strings.Repeat(" ", w-len(s)) + s
}

func clampInt(x, lo, hi int) int {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
