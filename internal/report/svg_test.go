package report

import (
	"encoding/xml"
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

// TestPlotDrawsPointsInXOrder: both renderers connect a series' points by
// ascending x, whatever order they were added in.
func TestPlotDrawsPointsInXOrder(t *testing.T) {
	sorted, shuffled := sampleSVGPlot(), &Plot{Title: "Hit rate & <escaping>", XLabel: "cache size (MB)", YLabel: "hit rate", LogX: true}
	shuffled.Add(Series{Name: "LRU", X: []float64{32, 8, 64, 16}, Y: []float64{0.3, 0.1, 0.4, 0.2}})
	shuffled.Add(Series{Name: `GD*("P")`, X: []float64{64, 32, 16, 8}, Y: []float64{0.5, 0.4, 0.3, 0.2}})
	if sorted.SVG() != shuffled.SVG() {
		t.Error("SVG depends on the order points were added in")
	}
	if sorted.Render() != shuffled.Render() {
		t.Error("Render depends on the order points were added in")
	}
}
