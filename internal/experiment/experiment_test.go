package experiment

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"webcachesim/internal/core"
)

// smallEnv returns an environment sized for fast mechanical tests.
func smallEnv() *Env {
	return NewEnv(Options{Scale: 0.05, Seed: 1})
}

func TestParseID(t *testing.T) {
	for _, id := range All {
		got, err := ParseID(string(id))
		if err != nil || got != id {
			t.Errorf("ParseID(%q) = %v, %v", id, got, err)
		}
	}
	if _, err := ParseID("table9"); err == nil {
		t.Error("unknown id accepted")
	}
	if got, err := ParseID(" FIGURE2 "); err != nil || got != Figure2 {
		t.Errorf("ParseID should normalize case/space, got %v, %v", got, err)
	}
}

func TestEnvCachesWorkloads(t *testing.T) {
	e := smallEnv()
	w1, err := e.Workload("dfn")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := e.Workload("DFN")
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Error("workload not cached across case variants")
	}
	c1, err := e.Characterization("dfn")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := e.Characterization("dfn")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("characterization not cached")
	}
	if _, err := e.Workload("nosuch"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestEnvCapacities(t *testing.T) {
	e := NewEnv(Options{Scale: 0.05, Seed: 1, CacheSizePcts: []float64{4, 1, 1, 2}})
	w, err := e.Workload("dfn")
	if err != nil {
		t.Fatal(err)
	}
	caps := e.Capacities(w)
	if len(caps) == 0 {
		t.Fatal("no capacities")
	}
	for i := 1; i < len(caps); i++ {
		if caps[i] <= caps[i-1] {
			t.Error("capacities not strictly ascending after dedup")
		}
	}
	for _, c := range caps {
		if c < 1<<20 {
			t.Errorf("capacity %d below the 1 MB floor", c)
		}
	}
}

// runAll runs the paper's experiments in order on one environment.
func runAll(t *testing.T, e *Env) []*Output {
	t.Helper()
	var outs []*Output
	for _, id := range All {
		o, err := e.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		outs = append(outs, o)
	}
	return outs
}

// TestAllExperimentsProduceOutput drives every registry row mechanically
// at tiny scale: tables have rows, notes mention the scale.
func TestAllExperimentsProduceOutput(t *testing.T) {
	e := NewEnv(Options{Scale: 0.05, Seed: 1, CacheSizePcts: []float64{1, 2, 4}})
	for _, o := range runAll(t, e) {
		if o.Title == "" {
			t.Errorf("%s: empty title", o.ID)
		}
		if len(o.Tables) == 0 {
			t.Errorf("%s: no tables", o.ID)
		}
		for i, tbl := range o.Tables {
			if tbl.NumRows() == 0 || !strings.Contains(tbl.CSV(), ",") {
				t.Errorf("%s table %d: looks empty: %q", o.ID, i, tbl.CSV())
			}
		}
		if len(o.Checks) == 0 {
			t.Errorf("%s: no shape checks", o.ID)
		}
		foundScaleNote := false
		for _, n := range o.Notes {
			if strings.Contains(n, "scale") {
				foundScaleNote = true
			}
		}
		if !foundScaleNote {
			t.Errorf("%s: missing scale note", o.ID)
		}
	}
}

func TestFigureOutputsHavePlots(t *testing.T) {
	e := NewEnv(Options{Scale: 0.05, Seed: 1, CacheSizePcts: []float64{1, 2, 4}})
	for _, id := range []ID{Figure1, Figure2, Figure3} {
		o, err := e.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		// Four classes × (HR, BHR) = 8 plots per figure.
		if len(o.Plots) != 8 {
			t.Errorf("%s: %d plots, want 8", id, len(o.Plots))
		}
		// Each plot draws as an SVG document with its curves.
		for i, p := range o.Plots {
			svg := p.SVG()
			if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
				t.Errorf("%s SVG %d malformed", id, i)
			}
			if !strings.Contains(svg, "<polyline") {
				t.Errorf("%s SVG %d draws no curve", id, i)
			}
		}
	}
}

func TestExtrasRun(t *testing.T) {
	e := NewEnv(Options{Scale: 0.05, Seed: 1, CacheSizePcts: []float64{1, 2, 4}})
	for _, id := range Extras {
		parsed, err := ParseID(string(id))
		if err != nil || parsed != id {
			t.Errorf("ParseID(%q) = %v, %v", id, parsed, err)
		}
		o, err := e.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(o.Tables) == 0 || len(o.Checks) == 0 {
			t.Errorf("%s: empty output", id)
		}
	}
	// Extras stay out of the paper-artifact list.
	for _, id := range All {
		for _, x := range Extras {
			if id == x {
				t.Errorf("extra %s leaked into All", x)
			}
		}
	}
}

// TestGridMajority pins the beats evaluator: a missing cell is not
// counted, the claim needs a strict majority of the counted sizes, and a
// loss within the 0.005 slack still counts as holding.
func TestGridMajority(t *testing.T) {
	cell := func(policy string, capacity, hits int64) *core.Result {
		r := &core.Result{Policy: policy, Capacity: capacity, ByClass: classCountsWithOverall(hits, 1000)}
		r.Overall = r.ByClass[1]
		return r
	}
	g := core.NewGrid([]*core.Result{
		cell("A", 100, 800), cell("A", 200, 900), cell("A", 300, 500),
		cell("B", 100, 500), cell("B", 200, 950), cell("B", 300, 504),
		cell("C", 100, 900), // C was simulated at one size only
	}, nil)
	if len(g.Capacities) != 3 || g.Capacities[0] != 100 {
		t.Fatalf("capacities = %v", g.Capacities)
	}
	for _, tc := range []struct {
		a, b   string
		pass   bool
		detail string
	}{
		// A wins at 100, loses at 200, and trails by 0.004 < slack at 300.
		{"A", "B", true, "A ≥ B at 2/3 sizes, mean margin +0.0820"},
		// The mirror image: B holds at 200 and at 300 (ahead there).
		{"B", "A", true, "B ≥ A at 2/3 sizes, mean margin -0.0820"},
		// Only the size both ran at counts; A loses it.
		{"A", "C", false, "A ≥ C at 0/1 sizes, mean margin -0.1000"},
		{"C", "A", true, "C ≥ A at 1/1 sizes, mean margin +0.1000"},
		// Nothing to compare is a failure, not a vacuous pass.
		{"A", "D", false, "A ≥ D at 0/0 sizes, mean margin +0.0000"},
	} {
		pass, detail := majority(g, tc.a, tc.b, overallHitRate)
		if pass != tc.pass || detail != tc.detail {
			t.Errorf("%s beats %s: got %v %q, want %v %q", tc.a, tc.b, pass, detail, tc.pass, tc.detail)
		}
	}
	// One win, one loss: half is not a majority.
	tie := core.NewGrid([]*core.Result{
		cell("A", 100, 800), cell("A", 200, 500), cell("B", 100, 500), cell("B", 200, 800),
	}, nil)
	if pass, detail := majority(tie, "A", "B", overallHitRate); pass {
		t.Errorf("1/2 sizes passed as a majority: %s", detail)
	}
}

// classCountsWithOverall builds per-class counts whose image class yields
// hits/requests for overall aggregation in tests.
func classCountsWithOverall(hits, requests int64) core.ClassCounts {
	var cc core.ClassCounts
	cc[1] = core.Counts{Requests: requests, Hits: hits, ReqBytes: requests, HitBytes: hits}
	return cc
}

// TestClaimsMatchCommittedReport holds the registry to the committed
// reproduction: the [PASS]/[FAIL] lines of docs/report-scale1.txt, in
// order, name exactly the claims of All then Extras. A claim dropped,
// renamed or reordered fails here without simulating anything.
func TestClaimsMatchCommittedReport(t *testing.T) {
	report, err := os.ReadFile(filepath.Join("..", "..", "docs", "report-scale1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(report), "\n") {
		if verdict, ok := strings.CutPrefix(line, "  ["); ok && len(verdict) > 6 {
			name, _, _ := strings.Cut(verdict[len("PASS] "):], " — ")
			want = append(want, name)
		}
	}
	var got []string
	var ids []ID
	for _, x := range registry {
		ids = append(ids, x.id)
		for _, c := range x.claims {
			got = append(got, c.name)
		}
	}
	if len(want) != 57 || !slices.Equal(got, want) {
		t.Errorf("registry claims differ from the %d verdict lines of docs/report-scale1.txt:\n got %q\nwant %q",
			len(want), got, want)
	}
	// The report's order is the registry's: All, then Extras.
	if !slices.Equal(slices.Concat(All, Extras), ids) {
		t.Errorf("All+Extras = %v, registry order is %v", slices.Concat(All, Extras), ids)
	}
}

// TestShapeChecksAtCalibrationScale is the reproduction gate: at the
// default seed and a realistic scale, every qualitative claim the paper
// makes must hold on the synthetic workloads.
func TestShapeChecksAtCalibrationScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is slow")
	}
	for _, o := range runAll(t, NewEnv(Options{Scale: 0.4, Seed: 1})) {
		for _, c := range o.Checks {
			if !c.Pass {
				t.Errorf("%s: %s — %s", o.ID, c.Name, c.Detail)
			}
		}
	}
}
