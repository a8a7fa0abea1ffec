package policy

import (
	"webcachesim/internal/container/intlist"
	"webcachesim/internal/stats"
)

// Default tuning for the online β estimator. The window length trades
// adaptation speed against fit noise; the clamp bounds keep a degenerate
// fit from destabilizing GD*'s priorities.
const (
	defaultRefitEvery = 50_000
	defaultMinSamples = 512
	betaFloor         = 0.1
	betaCeil          = 2.0
	// pruneDistance bounds how long an inactive document stays in the
	// last-seen table; distances beyond it are too rare to move the fit.
	pruneDistance = 1 << 21
	// betaSmoothing is the EWMA weight of the newest window's fit.
	betaSmoothing = 0.5
)

// BetaEstimator estimates the temporal-correlation index β of a request
// stream online, as GD* requires: the probability that a document is
// re-referenced n requests after its previous reference follows P(n) ∝
// n^-β, and β is re-fitted periodically from a log-bucketed histogram of
// observed inter-reference distances.
//
// The estimator is O(1) per observation and forgets documents not
// referenced within pruneDistance requests of a refit. Successive window
// fits are blended by an exponentially weighted moving average so that β
// adapts without jitter.
type BetaEstimator struct {
	// lastSeen and byKey are the last-seen table: the clock of each
	// document's latest reference. lastSeen is dense over Doc.ID and grown
	// on demand; byKey holds documents without an ID (ID < 0, the store's)
	// by URL, each on byAge, newest reference first. An entry below horizon
	// is absent — never referenced (0; the clock starts at 1) or pruned — so
	// a refit prunes lastSeen by raising horizon and deletes byAge's URLs
	// below it from the old end: byKey holds a URL exactly as long as
	// lastSeen would hold its ID, and a refit touches only what it forgets.
	lastSeen   []int64
	byKey      map[string]*intlist.Element[seenURL]
	byAge      intlist.List[seenURL]
	horizon    int64
	hist       *stats.LogHistogram
	clock      int64
	nextRefit  int64
	refitEvery int64
	beta       float64
	invBeta    float64 // 1/beta, refreshed with beta: GD* needs it per reference
	fitted     bool
}

// NewBetaEstimator returns an estimator with default tuning. Before the
// first successful fit, Beta returns 1 — the neutral exponent under which
// GD* degenerates to frequency-weighted GDS.
func NewBetaEstimator() *BetaEstimator {
	hist, err := stats.NewLogHistogram(2)
	if err != nil {
		// Unreachable: the base is a compile-time constant > 1.
		panic(err)
	}
	return &BetaEstimator{
		byKey:      make(map[string]*intlist.Element[seenURL]),
		horizon:    1,
		hist:       hist,
		refitEvery: defaultRefitEvery,
		beta:       1,
		invBeta:    1,
	}
}

// SetWindow overrides the refit interval (observations per window). It is
// intended for tests and ablation studies.
func (e *BetaEstimator) SetWindow(n int64) {
	if n > 0 {
		e.refitEvery = n
		e.nextRefit = e.clock + n
	}
}

// Observe records a reference to doc, identified by its dense doc ID when
// it has one and by its URL otherwise (see Doc.ID for the keying
// contract). The ID indexes the last-seen table directly, which matters:
// Observe sits on GD*'s per-request hot path.
func (e *BetaEstimator) Observe(doc *Doc) {
	e.clock++
	var last int64
	if id := doc.ID; id >= 0 {
		if int(id) >= len(e.lastSeen) {
			e.lastSeen = append(e.lastSeen, make([]int64, int(id)+1-len(e.lastSeen))...)
			e.lastSeen = e.lastSeen[:cap(e.lastSeen)] // zeroes: absent
		}
		last, e.lastSeen[id] = e.lastSeen[id], e.clock
	} else if el := e.byKey[doc.Key]; el != nil {
		last, el.Value.last = el.Value.last, e.clock
		e.byAge.MoveToFront(el)
	} else {
		e.byKey[doc.Key] = e.byAge.PushFront(seenURL{doc.Key, e.clock})
	}
	if last >= e.horizon {
		e.hist.Add(float64(e.clock - last))
	}
	if e.nextRefit == 0 {
		e.nextRefit = e.refitEvery
	}
	if e.clock >= e.nextRefit {
		e.refit()
		e.nextRefit = e.clock + e.refitEvery
	}
}

// Beta returns the current estimate of β, clamped to a stable range.
func (e *BetaEstimator) Beta() float64 { return e.beta }

// Fitted reports whether at least one window produced a successful fit.
func (e *BetaEstimator) Fitted() bool { return e.fitted }

// Observed returns the number of references observed.
func (e *BetaEstimator) Observed() int64 { return e.clock }

// Tracked returns the number of documents currently in the last-seen
// table (exported for instrumentation and tests of the pruning bound). It
// scans the dense table.
func (e *BetaEstimator) Tracked() int {
	n := len(e.byKey)
	for _, last := range e.lastSeen {
		if last >= e.horizon {
			n++
		}
	}
	return n
}

func (e *BetaEstimator) refit() {
	if e.hist.Total() >= defaultMinSamples {
		centers, densities := e.hist.Buckets()
		if fit, err := stats.FitPowerLaw(centers, densities); err == nil {
			b := clamp(-fit.Slope, betaFloor, betaCeil)
			if e.fitted {
				b = (1-betaSmoothing)*e.beta + betaSmoothing*b
			}
			e.beta, e.invBeta = b, 1/b
			e.fitted = true
		}
	}
	e.hist.Reset()
	// Prune documents whose next reference would land beyond the histogram
	// range we care about: distances past pruneDistance are too rare to
	// move the fit. The clock only grows, so the newest horizon subsumes
	// every earlier one.
	if horizon := e.clock - pruneDistance; horizon > 0 {
		e.horizon = horizon
		for old := e.byAge.Back(); old != nil && old.Value.last < horizon; old = e.byAge.Back() {
			delete(e.byKey, e.byAge.Remove(old).key)
		}
	}
}

// seenURL is a URL's entry in the last-seen table.
type seenURL struct {
	key  string
	last int64
}

func clamp(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}
