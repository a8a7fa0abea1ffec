package core

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"webcachesim/internal/mrc"
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
	// Capacities lists the cache sizes in bytes.
	Capacities []int64
	// WarmupFraction and SampleEvery are passed through to each run (see
	// Config).
	WarmupFraction float64
	SampleEvery    int64
	// Parallelism bounds the number of concurrent simulations; 0 selects
	// GOMAXPROCS.
	Parallelism int
	// SelfCheck is passed through to each run (see Config).
	SelfCheck bool
	// Journal, when set, receives the sweep's run journal: one JSON
	// object per line recording grid shape, per-run progress ticks,
	// throughput and wall-clock cost (see JournalRecord and
	// docs/METRICS.md). Nil disables journaling with zero overhead on the
	// replay loop. Sweep serializes concurrent writes; the writer itself
	// need not be safe for concurrent use.
	Journal io.Writer
	// JournalEvery is the number of events between progress records
	// within one run; 0 selects a tenth of the workload.
	JournalEvery int64
	// Now supplies journal timestamps (time.Now when nil); injectable so
	// tests produce deterministic journals. Simulation results never
	// depend on it.
	Now func() time.Time
}

// Sweep simulates every (policy, capacity) cell of the grid over the same
// workload, fanning the independent runs out across goroutines, and
// returns the results ordered by policy (grid order), then capacity
// (ascending).
//
// LRU cells take a fast path when the one-pass stack-distance engine
// (internal/mrc) is provably bit-exact for this workload and grid: all of
// a policy's capacities are then computed from a single scan instead of
// one full replay per cell. The fast path requires more than one
// capacity, no occupancy sampling, no self-checking, and a stream passing
// Workload.MRCExact. The journal records an mrc_pass event for each
// policy served this way.
func Sweep(w *Workload, cfg SweepConfig) ([]*Result, error) {
	if len(cfg.Policies) == 0 {
		return nil, errBadConfig("no policies")
	}
	if len(cfg.Capacities) == 0 {
		return nil, errBadConfig("no capacities")
	}
	// Results and journal records are keyed by policy name, so names must
	// be unique; the rank map doubles as the final ordering index.
	rank := make(map[string]int, len(cfg.Policies))
	for i, f := range cfg.Policies {
		if f.New == nil {
			return nil, errBadConfig("policy %q factory is nil", f.Name)
		}
		if _, dup := rank[f.Name]; dup {
			return nil, errBadConfig("duplicate policy name %q", f.Name)
		}
		rank[f.Name] = i
	}
	for _, c := range cfg.Capacities {
		if c <= 0 {
			return nil, errBadConfig("capacity %d must be positive", c)
		}
	}

	// The admission axis: an empty list degenerates to the pre-admission
	// grid. The slice is copied because empty names are normalized.
	admissions := make([]policy.AdmitterFactory, 0, max(1, len(cfg.Admissions)))
	if len(cfg.Admissions) == 0 {
		admissions = append(admissions, policy.NoAdmission())
	} else {
		admissions = append(admissions, cfg.Admissions...)
	}
	admRank := make(map[string]int, len(admissions))
	anyAdmission := false
	for i := range admissions {
		if admissions[i].Name == "" {
			if admissions[i].New != nil {
				return nil, errBadConfig("admission factory %d has no name", i)
			}
			admissions[i].Name = "none"
		}
		if _, dup := admRank[admissions[i].Name]; dup {
			return nil, errBadConfig("duplicate admission name %q", admissions[i].Name)
		}
		admRank[admissions[i].Name] = i
		if admissions[i].New != nil {
			anyAdmission = true
		}
	}

	warmup, err := resolveWarmup(cfg.WarmupFraction, w.NumRequests())
	if err != nil {
		return nil, err
	}

	// Decide which policies the MRC engine serves. The type probe (rather
	// than a name match) keeps renamed LRU factories on the fast path and
	// wrapped ones — TypeAware(LRU), Checked(LRU) — off it.
	minCap := cfg.Capacities[0]
	for _, c := range cfg.Capacities[1:] {
		if c < minCap {
			minCap = c
		}
	}
	viaMRC := make([]bool, len(cfg.Policies))
	anyMRC := false
	if cfg.SampleEvery == 0 && !cfg.SelfCheck &&
		len(cfg.Capacities) > 1 && w.MRCExact(minCap) {
		for i, f := range cfg.Policies {
			if _, ok := f.New().(*policy.LRU); ok {
				viaMRC[i] = true
				anyMRC = true
			}
		}
	}

	type cell struct {
		policyIdx int
		admIdx    int
		capIdx    int
	}
	cells := make([]cell, 0, len(cfg.Policies)*len(admissions)*len(cfg.Capacities))
	for pi := range cfg.Policies {
		for ai := range admissions {
			for ci := range cfg.Capacities {
				cells = append(cells, cell{policyIdx: pi, admIdx: ai, capIdx: ci})
			}
		}
	}
	// The MRC engine models plain LRU with unconditional admission, so
	// only a cell without a filter may be served by the scan.
	cellViaMRC := func(c cell) bool {
		return viaMRC[c.policyIdx] && admissions[c.admIdx].New == nil
	}
	anyMRC = false
	for _, c := range cells {
		if cellViaMRC(c) {
			anyMRC = true
			break
		}
	}

	// Validate the per-cell configurations up front so the fan-out cannot
	// fail. MRC-served cells have no simulator (sims[i] stays nil).
	sims := make([]*Simulator, len(cells))
	perCellRuns := 0
	for i, c := range cells {
		if cellViaMRC(c) {
			continue
		}
		sim, err := NewSimulator(w, Config{
			Capacity:       cfg.Capacities[c.capIdx],
			Policy:         cfg.Policies[c.policyIdx],
			WarmupFraction: cfg.WarmupFraction,
			SampleEvery:    cfg.SampleEvery,
			SelfCheck:      cfg.SelfCheck,
			Admission:      admissions[c.admIdx],
		})
		if err != nil {
			return nil, fmt.Errorf("core: sweep cell %s/%s/%d: %w",
				cfg.Policies[c.policyIdx].Name, admissions[c.admIdx].Name,
				cfg.Capacities[c.capIdx], err)
		}
		sims[i] = sim
		perCellRuns++
	}

	parallelism := cfg.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(cells) {
		parallelism = len(cells)
	}

	// Journaling is opt-in: without a writer every run takes the plain
	// Run path, so the replay loop carries no instrumentation cost.
	var jw *journalWriter
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	tickEvery := journalTickEvery(cfg, int64(w.NumRequests()))
	if cfg.Journal != nil {
		jw = newJournalWriter(cfg.Journal, now)
		names := make([]string, len(cfg.Policies))
		for i, f := range cfg.Policies {
			names[i] = f.Name
		}
		var admNames []string
		if anyAdmission {
			admNames = make([]string, len(admissions))
			for i, a := range admissions {
				admNames[i] = a.Name
			}
		}
		jw.emit(JournalRecord{
			Event:       JournalSweepStart,
			Policies:    names,
			Admissions:  admNames,
			Capacities:  cfg.Capacities,
			Parallelism: parallelism,
			Cells:       len(cells),
			Requests:    int64(w.NumRequests()),
			Documents:   int64(w.NumDocs()),
		})
	}
	sweepStart := now()

	// The single MRC scan runs concurrently with the per-cell fan-out.
	var (
		mrcWG     sync.WaitGroup
		mrcCurves map[int64]*mrc.Curve
		mrcErr    error
	)
	if anyMRC {
		mrcWG.Add(1)
		go func() {
			defer mrcWG.Done()
			start := now()
			curves, err := mrc.ComputeLRU(mrcSource{w}, mrc.Config{
				Capacities:     cfg.Capacities,
				WarmupRequests: warmup,
			})
			if err != nil {
				mrcErr = err
				return
			}
			mrcCurves = make(map[int64]*mrc.Curve, len(curves))
			for _, cv := range curves {
				mrcCurves[cv.Capacity] = cv
			}
			if jw != nil {
				elapsedMs, rps := throughput(int64(w.NumRequests()), now().Sub(start))
				for i, f := range cfg.Policies {
					if viaMRC[i] {
						jw.emit(JournalRecord{
							Event:          JournalMRCPass,
							Policy:         f.Name,
							Capacities:     cfg.Capacities,
							Requests:       int64(w.NumRequests()),
							ElapsedMs:      elapsedMs,
							RequestsPerSec: rps,
						})
					}
				}
			}
		}()
	}

	results := make([]*Result, len(cells))
	var wg sync.WaitGroup
	work := make(chan int)
	for g := 0; g < parallelism; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				// A simulator's per-document tables exist from its first
				// event until it is dropped here, so the sweep holds one
				// set per running cell, not one per cell.
				sim := sims[i]
				sims[i] = nil
				if jw != nil {
					results[i] = runJournaled(sim, w, jw, tickEvery, now)
				} else {
					results[i] = sim.Run(w)
				}
			}
		}()
	}
	for i := range cells {
		if sims[i] != nil {
			work <- i
		}
	}
	close(work)
	wg.Wait()
	mrcWG.Wait()
	if mrcErr != nil {
		return nil, fmt.Errorf("core: sweep mrc pass: %w", mrcErr)
	}

	for i, c := range cells {
		if cellViaMRC(c) {
			results[i] = mrcResult(mrcCurves[cfg.Capacities[c.capIdx]],
				cfg.Policies[c.policyIdx].Name, warmup)
		}
	}

	if jw != nil {
		replayed := int64(perCellRuns) * int64(w.NumRequests())
		if anyMRC {
			replayed += int64(w.NumRequests()) // the one MRC scan
		}
		elapsedMs, rps := throughput(replayed, now().Sub(sweepStart))
		jw.emit(JournalRecord{
			Event:          JournalSweepEnd,
			Cells:          len(cells),
			Requests:       replayed,
			ElapsedMs:      elapsedMs,
			RequestsPerSec: rps,
		})
		if jw.err != nil {
			return nil, fmt.Errorf("core: sweep journal: %w", jw.err)
		}
	}

	// Results are already in (policy, admission, capacity-index) order;
	// normalize capacity order in case the caller passed an unsorted
	// grid. Admission rank comes from the cell, not the result: an
	// unfiltered cell's Result carries an empty Admission name.
	cellAdm := make(map[*Result]int, len(results))
	for i, c := range cells {
		cellAdm[results[i]] = c.admIdx
	}
	ordered := make([]*Result, len(results))
	copy(ordered, results)
	sort.SliceStable(ordered, func(i, j int) bool {
		pi, pj := rank[ordered[i].Policy], rank[ordered[j].Policy]
		if pi != pj {
			return pi < pj
		}
		if ai, aj := cellAdm[ordered[i]], cellAdm[ordered[j]]; ai != aj {
			return ai < aj
		}
		return ordered[i].Capacity < ordered[j].Capacity
	})
	return ordered, nil
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
