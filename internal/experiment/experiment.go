// Package experiment maps every table and figure of the paper's
// evaluation to a row of one registry: the inputs it reads (a profile's
// characterization, its policy × cache-size grid, its occupancy series),
// the tables and plots it renders from them, and the qualitative "shape"
// claims — who wins, where, and by how much — the reproduction is judged
// by. Env generates and caches the inputs; Run renders one row.
package experiment

import (
	"fmt"
	"slices"
	"strings"

	"webcachesim/internal/analyze"
	"webcachesim/internal/core"
	"webcachesim/internal/report"
	"webcachesim/internal/synth"
)

// ID names one experiment, keyed to the paper artifact it regenerates.
type ID string

// The experiments, one per paper table/figure plus the §4.4 RTP summary.
const (
	Table1  ID = "table1"
	Table2  ID = "table2"
	Table3  ID = "table3"
	Table4  ID = "table4"
	Table5  ID = "table5"
	Figure1 ID = "figure1"
	Figure2 ID = "figure2"
	Figure3 ID = "figure3"
	RTP     ID = "rtp"
)

// experiment is one registry row.
type experiment struct {
	id ID
	// extra marks an experiment beyond the paper's artifacts: listed in
	// Extras, not in All.
	extra bool
	title string
	// notes follow the scale note on the output.
	notes []string
	// build renders the artifacts from the inputs it names.
	build func(*Env) (artifacts, error)
	// claims are the shape checks, in report order; a claim is addressed
	// by its experiment and its index here.
	claims []claim
}

// artifacts is what an experiment renders besides its verdicts.
type artifacts struct {
	tables []*report.Table
	plots  []*report.Plot
	// notes are the computed ones (Figure 1's cache size), after the
	// registry's.
	notes []string
}

// registry lists every experiment: the paper's artifacts in paper order,
// then the extras.
var registry = []experiment{
	table1,
	classMix(Table2, "dfn", "Table 2. DFN Trace: Workload characteristics broken down into document types"),
	classMix(Table3, "rtp", "Table 3. RTP Trace: Workload characteristics broken down into document types"),
	locality(Table4, "dfn", "Table 4. DFN Trace: Breakdown of document sizes and temporal locality"),
	locality(Table5, "rtp", "Table 5. RTP Trace: Breakdown of document sizes and temporal locality"),
	figure1, figure2, figure3, rtpSummary,
	filtering, baselines, admissionGrid, modification,
}

// All lists the paper's experiments in paper order; Extras the
// beyond-the-paper ones, reachable through Run and `wcreport -exp <id>`
// but not part of the reproduction.
var All, Extras = ids(false), ids(true)

func ids(extra bool) []ID {
	var out []ID
	for _, x := range registry {
		if x.extra == extra {
			out = append(out, x.id)
		}
	}
	return out
}

// ParseID resolves an experiment name (paper artifacts and extras).
func ParseID(s string) (ID, error) {
	id := ID(strings.ToLower(strings.TrimSpace(s)))
	if slices.Contains(All, id) || slices.Contains(Extras, id) {
		return id, nil
	}
	return "", fmt.Errorf("experiment: unknown id %q (want one of %v or %v)", s, All, Extras)
}

// Options configures an experiment environment.
type Options struct {
	// Scale multiplies the profiles' request counts; 0 selects 1.0. The
	// default profiles are 500k/400k requests — about 7% of the original
	// traces — so Scale 1 runs every experiment on a laptop in seconds.
	Scale float64
	// Seed drives the workload generation; 0 selects 1.
	Seed int64
	// CacheSizePcts are the sweep points as percentages of the workload's
	// distinct-document volume ("overall trace size"); nil selects the
	// paper's range 0.5–4%.
	CacheSizePcts []float64
}

// DefaultCacheSizePcts is the Figure 2/3 x-axis: "cache sizes are chosen
// from about 0.5% to about 4% of overall trace size" (§4.2); Figure 1's
// 1 GB cache on the ≈60 GB DFN trace (≈1.7%) sits inside this range.
var DefaultCacheSizePcts = []float64{0.5, 0.75, 1, 1.5, 2, 3, 4}

// Output is the result of running one experiment.
type Output struct {
	// ID and Title identify the paper artifact.
	ID    ID
	Title string
	// Tables are the regenerated rows, as data.
	Tables []*report.Table
	// Plots are the figures; the caller writes them as SVG when asked.
	Plots []*report.Plot
	// Checks are the evaluated shape claims.
	Checks []ShapeCheck
	// Notes document scale, substitutions, and reconstruction caveats.
	Notes []string
}

// Env generates and caches the inputs shared by the experiments, so a full
// report run synthesizes each trace and sweeps each grid exactly once.
type Env struct {
	opts  Options
	cache map[string]any
}

// NewEnv creates an experiment environment.
func NewEnv(opts Options) *Env {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if len(opts.CacheSizePcts) == 0 {
		opts.CacheSizePcts = DefaultCacheSizePcts
	}
	return &Env{opts: opts, cache: make(map[string]any)}
}

// input is one thing experiments read — a profile's characterization, its
// study grid, its occupancy series — computed on first use and cached in
// the Env. Artifacts and claims both name their inputs this way.
type input[T any] func(*Env) (T, error)

func cached[T any](key string, compute func(*Env) (T, error)) input[T] {
	return func(e *Env) (T, error) {
		if v, ok := e.cache[key]; ok {
			return v.(T), nil
		}
		v, err := compute(e)
		if err == nil {
			e.cache[key] = v
		}
		return v, err
	}
}

// from builds an experiment's artifacts out of one input.
func from[T any](in input[T], render func(T) artifacts) func(*Env) (artifacts, error) {
	return func(e *Env) (artifacts, error) {
		v, err := in(e)
		if err != nil {
			return artifacts{}, err
		}
		return render(v), nil
	}
}

// both reads a per-profile input for the two traces: [0] DFN, [1] RTP.
func both[T any](of func(profile string) input[T]) input[[2]T] {
	return func(e *Env) (out [2]T, err error) {
		for i, profile := range []string{"dfn", "rtp"} {
			if out[i], err = of(profile)(e); err != nil {
				break
			}
		}
		return out, err
	}
}

// generator returns a fresh request stream for the named profile; every
// call replays the same trace.
func (e *Env) generator(profile string) (*synth.Generator, error) {
	prof, err := synth.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	g, err := synth.NewGenerator(prof, synth.Options{Seed: e.opts.Seed, Scale: e.opts.Scale})
	if err != nil {
		return nil, fmt.Errorf("experiment: generate %s: %w", prof.Name, err)
	}
	return g, nil
}

// traceForms is a profile's synthetic trace in the two forms experiments
// read.
type traceForms struct {
	workload *core.Workload
	chars    *analyze.Characterization
}

// traceOf streams a profile's generated requests into the simulator
// workload, holding none of them, and characterizes the workload: nothing
// downstream reads the requests again (the filtering extra regenerates).
func traceOf(profile string) input[*traceForms] {
	return cached("trace/"+profile, func(e *Env) (*traceForms, error) {
		g, err := e.generator(profile)
		if err != nil {
			return nil, err
		}
		w, err := core.BuildWorkload(g, 0)
		if err != nil {
			return nil, err
		}
		return &traceForms{w, analyze.Characterize(w, strings.ToUpper(profile))}, nil
	})
}

// Workload returns (building on first use) the simulator workload for the
// named profile ("dfn" or "rtp").
func (e *Env) Workload(profileName string) (*core.Workload, error) {
	t, err := traceOf(strings.ToLower(profileName))(e)
	if err != nil {
		return nil, err
	}
	return t.workload, nil
}

// Characterization returns (computing on first use) the workload
// characterization for the named profile.
func (e *Env) Characterization(profileName string) (*analyze.Characterization, error) {
	t, err := traceOf(strings.ToLower(profileName))(e)
	if err != nil {
		return nil, err
	}
	return t.chars, nil
}

// chars is Characterization as an input.
func chars(profile string) input[*analyze.Characterization] {
	return func(e *Env) (*analyze.Characterization, error) { return e.Characterization(profile) }
}

// Capacities converts the configured cache-size percentages of a
// workload's overall size into byte capacities (ascending, deduplicated,
// minimum 1 MB so tiny test workloads stay simulable).
func (e *Env) Capacities(w *core.Workload) []int64 {
	out := make([]int64, 0, len(e.opts.CacheSizePcts))
	for _, pct := range e.opts.CacheSizePcts {
		out = append(out, w.CapacityAt(pct, core.FloorMB))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Run executes one experiment by ID: its artifacts, then its claims.
func (e *Env) Run(id ID) (*Output, error) {
	i := slices.IndexFunc(registry, func(x experiment) bool { return x.id == id })
	if i < 0 {
		return nil, fmt.Errorf("experiment: unknown id %q", id)
	}
	x := registry[i]
	art, err := x.build(e)
	if err != nil {
		return nil, err
	}
	out := &Output{
		ID:     x.id,
		Title:  x.title,
		Tables: art.tables,
		Plots:  art.plots,
		Notes:  slices.Concat([]string{e.scaleNote()}, x.notes, art.notes),
	}
	for _, c := range x.claims {
		check, err := c.check(e)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: claim %q: %w", x.id, c.name, err)
		}
		out.Checks = append(out.Checks, check)
	}
	return out, nil
}

// scaleNote documents the run scale on every output.
func (e *Env) scaleNote() string {
	return fmt.Sprintf("synthetic workload at scale %.2g (seed %d); see DESIGN.md for the trace substitution",
		e.opts.Scale, e.opts.Seed)
}
