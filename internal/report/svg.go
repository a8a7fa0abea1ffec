package report

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SVG dimensions and layout constants.
const (
	svgWidth      = 640
	svgHeight     = 420
	svgMarginL    = 64
	svgMarginR    = 24
	svgMarginT    = 40
	svgMarginB    = 88
	svgLegendRowH = 16
)

// svgPalette holds line colors chosen to stay distinguishable in print.
var svgPalette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#9467bd",
	"#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
}

// svgDashes differentiates series when color is unavailable.
var svgDashes = []string{"", "6,3", "2,2", "8,3,2,3", "4,4", "1,3", "10,4", "3,6"}

// SVG renders the plot as a standalone SVG document. Each series
// gets a distinct color and dash pattern plus a point marker, and the
// legend sits below the x-axis.
func (p *Plot) SVG() string {
	width, height := svgWidth, svgHeight
	plotW := float64(width - svgMarginL - svgMarginR)
	plotH := float64(height - svgMarginT - svgMarginB)

	xMin, xMax, yMin, yMax, hasData := p.axes()
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		width, height, width, height)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>`)
	if p.Title != "" {
		fmt.Fprintf(&sb, `<text x="%d" y="22" font-family="sans-serif" font-size="14" text-anchor="middle">%s</text>`,
			width/2, escapeXML(p.Title))
	}
	if !hasData {
		fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">no data</text></svg>`,
			width/2, height/2)
		return sb.String()
	}
	px := func(x float64) float64 {
		return svgMarginL + (p.xCoord(x)-xMin)/(xMax-xMin)*plotW
	}
	py := func(y float64) float64 {
		return svgMarginT + (1-(y-yMin)/(yMax-yMin))*plotH
	}

	// Frame and gridlines with y tick labels.
	fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="%.0f" height="%.0f" fill="none" stroke="#333"/>`,
		svgMarginL, svgMarginT, plotW, plotH)
	const yTicks = 5
	for i := 0; i <= yTicks; i++ {
		v := yMin + (yMax-yMin)*float64(i)/yTicks
		y := py(v)
		fmt.Fprintf(&sb, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`,
			svgMarginL, y, svgMarginL+plotW, y)
		fmt.Fprintf(&sb, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="end">%s</text>`,
			svgMarginL-6, y+3, escapeXML(FormatFloat(v)))
	}
	// X ticks at each distinct data x (the cache-size grid is sparse).
	for _, xv := range p.xTickValues() {
		x := px(xv)
		fmt.Fprintf(&sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`,
			x, float64(svgMarginT), x, svgMarginT+plotH)
		fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="middle">%s</text>`,
			x, svgMarginT+plotH+14, escapeXML(FormatFloat(xv)))
	}

	// Series.
	for si, s := range p.series {
		if len(s.X) == 0 {
			continue
		}
		color := svgPalette[si%len(svgPalette)]
		dash := svgDashes[si%len(svgDashes)]
		var points []string
		for i := range s.X {
			points = append(points, fmt.Sprintf("%.1f,%.1f", px(s.X[i]), py(s.Y[i])))
		}
		dashAttr := ""
		if dash != "" {
			dashAttr = fmt.Sprintf(` stroke-dasharray="%s"`, dash)
		}
		fmt.Fprintf(&sb, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.6"%s/>`,
			strings.Join(points, " "), color, dashAttr)
		for i := range s.X {
			fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="2.6" fill="%s"/>`,
				px(s.X[i]), py(s.Y[i]), color)
		}
	}

	// Axis labels.
	if p.XLabel != "" {
		fmt.Fprintf(&sb, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`,
			svgMarginL+int(plotW)/2, svgMarginT+plotH+30, escapeXML(p.XLabel))
	}
	if p.YLabel != "" {
		fmt.Fprintf(&sb, `<text x="14" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle" transform="rotate(-90 14 %.1f)">%s</text>`,
			svgMarginT+plotH/2, svgMarginT+plotH/2, escapeXML(p.YLabel))
	}

	// Legend: two columns below the x-axis label.
	legendTop := svgMarginT + plotH + 42
	for si, s := range p.series {
		col := si % 2
		row := si / 2
		x := svgMarginL + float64(col)*plotW/2
		y := legendTop + float64(row*svgLegendRowH)
		color := svgPalette[si%len(svgPalette)]
		dash := svgDashes[si%len(svgDashes)]
		dashAttr := ""
		if dash != "" {
			dashAttr = fmt.Sprintf(` stroke-dasharray="%s"`, dash)
		}
		fmt.Fprintf(&sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1.6"%s/>`,
			x, y, x+26, y, color, dashAttr)
		fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11">%s</text>`,
			x+32, y+4, escapeXML(s.Name))
	}
	sb.WriteString(`</svg>`)
	return sb.String()
}

// xTickValues returns the distinct x values across series, capped to a
// readable count.
func (p *Plot) xTickValues() []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, s := range p.series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
	}
	sort.Float64s(out)
	const maxTicks = 12
	if len(out) > maxTicks {
		step := (len(out) + maxTicks - 1) / maxTicks
		var thin []float64
		for i := 0; i < len(out); i += step {
			thin = append(thin, out[i])
		}
		out = thin
	}
	return out
}

// WriteSVGs saves the plots as <dir>/<prefix>-NN.svg, numbered from 01 in
// order, creating dir when there is a plot to write.
func WriteSVGs(dir, prefix string, plots []*Plot) error {
	if len(plots) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create svg dir: %w", err)
	}
	for i, p := range plots {
		path := filepath.Join(dir, fmt.Sprintf("%s-%02d.svg", prefix, i+1))
		if err := os.WriteFile(path, []byte(p.SVG()), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return nil
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
