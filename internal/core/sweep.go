package core

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"webcachesim/internal/policy"
)

func errBadConfig(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadConfig, fmt.Sprintf(format, args...))
}

// SweepConfig describes a policy × cache-size grid, the shape of every
// performance figure in the paper.
type SweepConfig struct {
	// Policies lists the replacement schemes to compare. Names must be
	// unique: results and journal records are keyed by name.
	Policies []policy.Factory
	// Admissions lists the admission filters to cross with every policy
	// (see internal/admission); empty sweeps the policies without
	// admission, exactly as before the axis existed. Names must be
	// unique; a factory with a nil New means "no admission".
	Admissions []policy.AdmitterFactory
	// Capacities lists the cache sizes in bytes, in any order; they must
	// be positive and distinct.
	Capacities []int64
	// WarmupFraction is passed through to each run (see Config).
	WarmupFraction float64
	// Parallelism bounds the number of concurrent simulations; 0 selects
	// GOMAXPROCS.
	Parallelism int
	// Journal, when set, receives the sweep's run journal: one JSON
	// object per line recording grid shape, per-run progress ticks (one
	// per tenth of the workload), throughput and wall-clock cost (see
	// JournalRecord and docs/METRICS.md). Nil disables journaling with
	// zero overhead on the replay loop. Sweep serializes concurrent
	// writes; the writer itself need not be safe for concurrent use.
	Journal io.Writer
	// Now supplies journal timestamps (time.Now when nil); injectable so
	// tests produce deterministic journals. Simulation results never
	// depend on it.
	Now func() time.Time
}

// planSweep validates the grid and builds one simulator per cell, in the
// order Sweep returns results: policy (grid order), then admission (grid
// order), then capacity (ascending). It also returns the admission axis
// with its default and its names filled in.
func planSweep(w *Workload, cfg SweepConfig) ([]*Simulator, []policy.AdmitterFactory, error) {
	if len(cfg.Policies) == 0 {
		return nil, nil, errBadConfig("no policies")
	}
	if len(cfg.Capacities) == 0 {
		return nil, nil, errBadConfig("no capacities")
	}
	// Results and journal records are keyed by (policy name, admission
	// name, capacity), so no axis may hold a value twice.
	seen := make(map[string]bool)
	for _, f := range cfg.Policies {
		if seen[f.Name] {
			return nil, nil, errBadConfig("duplicate policy name %q", f.Name)
		}
		seen[f.Name] = true
	}
	// The admission axis: an empty list degenerates to the pre-admission
	// grid. The slice is copied because empty names are normalized.
	admissions := slices.Clone(cfg.Admissions)
	if len(admissions) == 0 {
		admissions = []policy.AdmitterFactory{policy.NoAdmission()}
	}
	clear(seen)
	for i := range admissions {
		a := &admissions[i]
		if a.Name == "" {
			if a.New != nil {
				return nil, nil, errBadConfig("admission factory %d has no name", i)
			}
			a.Name = "none"
		}
		if seen[a.Name] {
			return nil, nil, errBadConfig("duplicate admission name %q", a.Name)
		}
		seen[a.Name] = true
	}
	capacities := slices.Clone(cfg.Capacities)
	slices.Sort(capacities)
	for i, c := range capacities[1:] {
		if c == capacities[i] {
			return nil, nil, errBadConfig("duplicate capacity %d", c)
		}
	}
	warmup, err := resolveWarmup(cfg.WarmupFraction, w.NumRequests())
	if err != nil {
		return nil, nil, err
	}

	sims := make([]*Simulator, 0, len(cfg.Policies)*len(admissions)*len(capacities))
	for _, f := range cfg.Policies {
		for _, a := range admissions {
			for _, c := range capacities {
				sim, err := newSimulator(w, Config{Capacity: c, Policy: f, Admission: a}, warmup)
				if err != nil {
					return nil, nil, fmt.Errorf("core: sweep cell %s/%s/%d: %w", f.Name, a.Name, c, err)
				}
				sims = append(sims, sim)
			}
		}
	}
	return sims, admissions, nil
}

// Sweep simulates every (policy, admission, capacity) cell of the grid
// over the same workload, fanning the independent runs out across
// goroutines, and returns the results ordered by policy (grid order),
// then admission (grid order), then capacity (ascending). Every cell is
// one Simulator replaying the whole workload.
func Sweep(w *Workload, cfg SweepConfig) ([]*Result, error) {
	// Plan: every cell is validated up front so the fan-out cannot fail.
	sims, admissions, err := planSweep(w, cfg)
	if err != nil {
		return nil, err
	}
	parallelism := cfg.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	parallelism = min(parallelism, len(sims))

	// Journaling is opt-in: without a writer jw stays nil and every cell
	// is a plain Simulator.Run.
	var jw *journalWriter
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	if cfg.Journal != nil {
		jw = newJournalWriter(cfg.Journal, now)
		start := JournalRecord{
			Event:       JournalSweepStart,
			Capacities:  cfg.Capacities,
			Parallelism: parallelism,
			Cells:       len(sims),
			Requests:    int64(w.NumRequests()),
			Documents:   int64(w.NumDocs()),
		}
		for _, f := range cfg.Policies {
			start.Policies = append(start.Policies, f.Name)
		}
		if slices.ContainsFunc(admissions, func(a policy.AdmitterFactory) bool { return a.New != nil }) {
			for _, a := range admissions {
				start.Admissions = append(start.Admissions, a.Name)
			}
		}
		jw.emit(start)
	}
	sweepStart := now()

	// Run: results[i] is cell i's, so they come out in plan order.
	results := make([]*Result, len(sims))
	var wg sync.WaitGroup
	work := make(chan int)
	for g := 0; g < parallelism; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One set of per-document tables serves every cell this
			// worker runs: each cell re-initialises it on its first event
			// and hands it to the next, so the sweep holds one set per
			// worker, not one per cell. The finished cell itself, with its
			// policy and admitter, is dropped here.
			var docs docTable
			var in []bool
			for i := range work {
				sim := sims[i]
				sims[i] = nil
				sim.docs, sim.in = docs, in
				results[i] = jw.runCell(sim, w)
				docs, in = sim.docs, sim.in
			}
		}()
	}
	for i := range sims {
		work <- i
	}
	close(work)
	wg.Wait()

	// Collect: nothing to reorder; close the journal and report its error.
	if jw != nil {
		replayed := int64(len(results)) * int64(w.NumRequests())
		elapsedMs, rps := throughput(replayed, now().Sub(sweepStart))
		jw.emit(JournalRecord{
			Event:          JournalSweepEnd,
			Cells:          len(results),
			Requests:       replayed,
			ElapsedMs:      elapsedMs,
			RequestsPerSec: rps,
		})
		if jw.err != nil {
			return nil, fmt.Errorf("core: sweep journal: %w", jw.err)
		}
	}
	return results, nil
}

// Grid indexes sweep results by series and capacity: the one lookup
// behind the per-size tables, the curves and the "A beats B" claims.
type Grid struct {
	// Series names the series in order of first appearance; Capacities
	// lists the distinct capacities, ascending.
	Series     []string
	Capacities []int64
	cells      map[string]map[int64]*Result
}

// NewGrid indexes results into one series per distinct key(r); a nil key
// selects the policy name.
func NewGrid(results []*Result, key func(*Result) string) *Grid {
	if key == nil {
		key = func(r *Result) string { return r.Policy }
	}
	g := &Grid{cells: make(map[string]map[int64]*Result)}
	for _, r := range results {
		name := key(r)
		if g.cells[name] == nil {
			g.cells[name] = make(map[int64]*Result)
			g.Series = append(g.Series, name)
		}
		g.cells[name][r.Capacity] = r
		if !slices.Contains(g.Capacities, r.Capacity) {
			g.Capacities = append(g.Capacities, r.Capacity)
		}
	}
	slices.Sort(g.Capacities)
	return g
}

// At returns one cell, or nil when it was not simulated.
func (g *Grid) At(series string, capacity int64) *Result { return g.cells[series][capacity] }

// Value reads one measure from one cell; a missing cell is NaN, so a
// comparison involving it fails visibly.
func (g *Grid) Value(series string, capacity int64, measure func(*Result) float64) float64 {
	if r := g.At(series, capacity); r != nil {
		return measure(r)
	}
	return math.NaN()
}

// CurveMB extracts one series' curve over the simulated cache sizes, in
// MB, under the supplied measure (e.g. hit rate of one class).
func (g *Grid) CurveMB(series string, measure func(*Result) float64) (mb, values []float64) {
	for _, c := range g.Capacities {
		if r := g.At(series, c); r != nil {
			mb = append(mb, float64(c)/(1<<20))
			values = append(values, measure(r))
		}
	}
	return mb, values
}
