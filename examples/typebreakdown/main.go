// Typebreakdown reproduces the paper's core observation on a small
// workload: the *same* policies rank differently for different document
// types. It sweeps four schemes across cache sizes and prints, per
// document class, the hit-rate curve plus an ASCII rendering of the
// image-class figure.
//
// Run with: go run ./examples/typebreakdown
package main

import (
	"fmt"
	"log"

	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
	"webcachesim/internal/report"
	"webcachesim/internal/synth"
	"webcachesim/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	reqs, err := synth.Generate(synth.DFNProfile(), synth.Options{Seed: 7, Requests: 150_000})
	if err != nil {
		return err
	}
	w, err := core.BuildWorkload(trace.NewSliceReader(reqs), 0)
	if err != nil {
		return err
	}

	var capacities []int64
	for _, pct := range []float64{0.5, 1, 2, 4} {
		capacities = append(capacities, w.CapacityAt(pct, core.FloorByte))
	}
	policies := []policy.Factory{
		policy.MustFactory(policy.Spec{Scheme: "lru"}),
		policy.MustFactory(policy.Spec{Scheme: "lfuda"}),
		policy.MustFactory(policy.Spec{Scheme: "gds", Cost: policy.ConstantCost{}}),
		policy.MustFactory(policy.Spec{Scheme: "gdstar", Cost: policy.ConstantCost{}}),
	}
	results, err := core.Sweep(w, core.SweepConfig{Policies: policies, Capacities: capacities})
	if err != nil {
		return err
	}

	// Per-class tables: watch the ranking flip between images and
	// multi media.
	g := core.NewGrid(results, nil)
	hitRate := func(cl doctype.Class) func(*core.Result) float64 {
		return func(r *core.Result) float64 { return r.ByClass[cl].HitRate() }
	}
	for _, cl := range []doctype.Class{doctype.Image, doctype.MultiMedia} {
		t := report.NewTable(cl.String()+" — hit rate by cache size",
			append([]string{"Cache (MB)"}, g.Series...)...)
		for _, c := range g.Capacities {
			row := []any{fmt.Sprintf("%.0f", float64(c)/(1<<20))}
			for _, name := range g.Series {
				row = append(row, g.Value(name, c, hitRate(cl)))
			}
			t.AddRowf(row...)
		}
		fmt.Println(t.Text())
	}

	// The image figure, as the paper plots it.
	p := report.Plot{
		Title:  "Images — hit rate vs cache size (DFN-like, constant cost)",
		XLabel: "cache size (MB, log)",
		YLabel: "hit rate",
		LogX:   true,
		Width:  60,
		Height: 14,
	}
	for _, name := range g.Series {
		mb, ys := g.CurveMB(name, hitRate(doctype.Image))
		p.Add(report.Series{Name: name, X: mb, Y: ys})
	}
	fmt.Println(p.Render())
	fmt.Println("Note the inversion: GD*(1) leads on images but trails LRU on multi media.")
	return nil
}
