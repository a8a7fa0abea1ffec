package report

import (
	"encoding/xml"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleSVGPlot() *Plot {
	p := &Plot{
		Title:  "Hit rate & <escaping>",
		XLabel: "cache size (MB)",
		YLabel: "hit rate",
		LogX:   true,
	}
	p.Add(Series{Name: "LRU", X: []float64{8, 16, 32, 64}, Y: []float64{0.1, 0.2, 0.3, 0.4}})
	p.Add(Series{Name: `GD*("P")`, X: []float64{8, 16, 32, 64}, Y: []float64{0.2, 0.3, 0.4, 0.5}})
	return p
}

func TestSVGWellFormed(t *testing.T) {
	out := sampleSVGPlot().SVG()
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("SVG is not well-formed XML: %v\n%s", err, out)
		}
	}
}

func TestSVGContent(t *testing.T) {
	out := sampleSVGPlot().SVG()
	for _, want := range []string{
		"<svg", "</svg>", "polyline", "circle",
		"LRU", "GD*(&quot;P&quot;)", "Hit rate &amp; &lt;escaping&gt;",
		"cache size (MB)", "hit rate",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if got := strings.Count(out, "<polyline"); got != 2 {
		t.Errorf("polyline count = %d, want 2", got)
	}
	// 8 data points => 8 markers.
	if got := strings.Count(out, "<circle"); got != 8 {
		t.Errorf("circle count = %d, want 8", got)
	}
}

func TestSVGEmpty(t *testing.T) {
	p := &Plot{Title: "empty"}
	out := p.SVG()
	if !strings.Contains(out, "no data") {
		t.Errorf("empty SVG should say so:\n%s", out)
	}
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		if _, err := dec.Token(); err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("empty SVG malformed: %v", err)
		}
	}
}

func TestSVGTickThinning(t *testing.T) {
	p := &Plot{}
	xs := make([]float64, 40)
	ys := make([]float64, 40)
	for i := range xs {
		xs[i], ys[i] = float64(i+1), float64(i)
	}
	p.Add(Series{Name: "dense", X: xs, Y: ys})
	ticks := p.xTickValues()
	if len(ticks) > 14 {
		t.Errorf("tick thinning failed: %d ticks", len(ticks))
	}
}

// TestPlotDrawsPointsInXOrder: SVG connects a series' points by ascending
// x, whatever order they were added in.
func TestPlotDrawsPointsInXOrder(t *testing.T) {
	sorted, shuffled := sampleSVGPlot(), &Plot{Title: "Hit rate & <escaping>", XLabel: "cache size (MB)", YLabel: "hit rate", LogX: true}
	shuffled.Add(Series{Name: "LRU", X: []float64{32, 8, 64, 16}, Y: []float64{0.3, 0.1, 0.4, 0.2}})
	shuffled.Add(Series{Name: `GD*("P")`, X: []float64{64, 32, 16, 8}, Y: []float64{0.5, 0.4, 0.3, 0.2}})
	if sorted.SVG() != shuffled.SVG() {
		t.Error("SVG depends on the order points were added in")
	}
}

// TestPlotEmpty: a plot whose series have no finite point is drawn as "no
// data", like a plot with no series.
func TestPlotEmpty(t *testing.T) {
	p := &Plot{Title: "empty"}
	p.Add(Series{Name: "s", X: []float64{math.NaN(), 1}, Y: []float64{1, math.Inf(-1)}})
	out := p.SVG()
	if !strings.Contains(out, "no data") || strings.Contains(out, "<polyline") {
		t.Errorf("plot with no finite point drawn as data:\n%s", out)
	}
}

func TestPlotDropsNonFinite(t *testing.T) {
	p := &Plot{}
	inf := math.Inf(1)
	p.Add(Series{Name: "s", X: []float64{1, 2, inf}, Y: []float64{1, math.NaN(), 3}})
	out := p.SVG()
	if got := strings.Count(out, "<circle"); got != 1 {
		t.Errorf("circle count = %d, want the 1 finite point", got)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("non-finite coordinate drawn:\n%s", out)
	}
}

// TestWriteSVGs: one <prefix>-NN.svg per plot, numbered in order, and no
// directory for no plots.
func TestWriteSVGs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "figs")
	if err := WriteSVGs(dir, "none", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("no plots created %s (%v)", dir, err)
	}
	plots := []*Plot{sampleSVGPlot(), {Title: "second"}}
	if err := WriteSVGs(dir, "fig", plots); err != nil {
		t.Fatal(err)
	}
	for i, p := range plots {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("fig-%02d.svg", i+1)))
		if err != nil || string(got) != p.SVG() {
			t.Errorf("fig-%02d.svg does not hold plot %d (%v)", i+1, i, err)
		}
	}
}
