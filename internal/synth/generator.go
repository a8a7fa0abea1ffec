package synth

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"webcachesim/internal/container/pqueue"
	"webcachesim/internal/trace"
)

// Options tunes a generation run.
type Options struct {
	// Seed makes the trace reproducible. Zero selects seed 1.
	Seed int64
	// Scale multiplies the profile's request count; 0 selects 1.0.
	Scale float64
	// Requests overrides the request count directly when positive
	// (Scale is then ignored); 0 selects Scale.
	Requests int
	// Clients is the size of the client population; requests carry client
	// identifiers drawn from a Zipf distribution over it, and scheduled
	// re-references keep their original client (a client re-reads its own
	// documents). 0 selects a single client.
	Clients int
}

// clientZipfAlpha skews client activity: a few heavy clients, a long
// tail, as proxy logs show.
const clientZipfAlpha = 0.8

// startMillis is the first request's clock: 2001-07-01T00:00:00Z (DFN's collection period) in Unix ms.
const startMillis = 993_945_600_000

// populationHeadroom oversizes per-class document populations relative to
// the expected distinct-document count so the Zipf tail does not exhaust.
const populationHeadroom = 1.3

// slabLen is how many requests Next carves from one allocation: 26 KiB
// of trace.Request, inside the small-object size classes, so a slab freed
// with its requests is reused like any small object. One slab for a
// whole trace would be a large object whose pages no freed small span
// can serve: over nine 300 k-request set-ups in one process it raised
// peak RSS from ~106 to ~137 MiB.
const slabLen = 256

// classState holds the mutable generation state of one document class.
type classState struct {
	prof ClassProfile
	zipf *Zipf
	// docs is indexed by popularity rank; a zero size marks a document
	// not yet drawn.
	docs []docRec
	logn *LogNormal
	dist stackDistance
	// prefix and suffix frame a document's rank in its URL.
	prefix, suffix string
}

// docRec is a document's current size and its URL.
type docRec struct {
	size int64
	name string
}

// pendingRef is a scheduled re-reference implementing temporal
// correlation: when a request is emitted, a follow-up reference to the
// same document is scheduled with probability CorrProb at a global-stream
// distance drawn from the class's d^-β power law. Measured on the output
// stream, inter-reference distances of equally popular documents then
// follow P(n) ∝ n^-β — the paper's definition of the temporal-correlation
// index — in global requests, independent of how rare the class is.
type pendingRef struct {
	class  int
	doc    int32
	client int32
}

// Generator produces synthetic request streams from a profile. Create one
// with NewGenerator and pull requests with Next, or use Generate for a
// materialized slice. It is a trace.Reader, so a synthetic trace feeds
// core.BuildWorkload (or any other trace consumer) directly.
type Generator struct {
	prof    *Profile
	rng     *rand.Rand
	classes []*classState
	// classCum is the fresh-draw CDF aligned with classes. Fresh-draw
	// weights are RequestShare·(1−CorrProb): each fresh draw spawns a
	// geometric chain of re-references with expected length
	// 1/(1−CorrProb), so the emitted request shares match RequestShare.
	classCum []float64
	// pending holds scheduled re-references keyed by due position.
	pending pqueue.Queue[pendingRef]
	// maxDelay caps re-reference distances so short test traces still see
	// their scheduled correlation.
	maxDelay int
	// clients samples client identifiers (nil for a single client).
	clients     *Zipf
	clientNames []string
	now         int64
	total       int
	emitted     int
	// slab holds the unused slots of the requests Next carves.
	slab []trace.Request
}

// NewGenerator validates the profile and prepares a generator emitting
// the configured number of requests.
func NewGenerator(p *Profile, opts Options) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	// A negative count or a scale that is negative or not finite is a
	// mistake, not a request for the default; errors name the option as
	// the commands spell their flags.
	switch {
	case opts.Requests < 0:
		return nil, fmt.Errorf("synth: requests %d is negative", opts.Requests)
	case opts.Scale < 0 || math.IsNaN(opts.Scale) || math.IsInf(opts.Scale, 0):
		return nil, fmt.Errorf("synth: scale %g must be finite and not negative", opts.Scale)
	case opts.Clients < 0:
		return nil, fmt.Errorf("synth: clients %d is negative", opts.Clients)
	}
	total := opts.Requests
	if total == 0 {
		scale := opts.Scale
		if scale == 0 {
			scale = 1
		}
		n := math.Round(scale * float64(p.Requests))
		if n >= math.MaxInt {
			return nil, fmt.Errorf("synth: scale %g overflows the request count", opts.Scale)
		}
		total = int(n)
	}
	if total <= 0 {
		return nil, fmt.Errorf("synth: request count %d must be positive", total)
	}

	maxDelay := total / 4
	if maxDelay > 65536 {
		maxDelay = 65536
	}
	if maxDelay < 64 {
		maxDelay = 64
	}
	g := &Generator{
		prof:     p,
		rng:      rand.New(rand.NewSource(seed)),
		classCum: make([]float64, 0, len(p.Classes)),
		maxDelay: maxDelay,
		now:      startMillis,
		total:    total,
	}
	if opts.Clients > 0 {
		zipf, err := NewZipf(opts.Clients, clientZipfAlpha)
		if err != nil {
			return nil, fmt.Errorf("synth: clients: %w", err)
		}
		g.clients = zipf
		g.clientNames = make([]string, opts.Clients)
	}
	var cum float64
	for _, cp := range p.Classes {
		pop := int(math.Ceil(cp.DistinctShare * p.DocsPerRequest * float64(total) * populationHeadroom))
		if pop < 8 {
			pop = 8
		}
		zipf, err := NewZipf(pop, cp.Alpha)
		if err != nil {
			return nil, fmt.Errorf("synth: class %v: %w", cp.Class, err)
		}
		logn, err := NewLogNormal(cp.MedianSizeKB, cp.MeanSizeKB)
		if err != nil {
			return nil, fmt.Errorf("synth: class %v: %w", cp.Class, err)
		}
		st := &classState{
			prof:   cp,
			zipf:   zipf,
			docs:   make([]docRec, pop),
			logn:   logn,
			dist:   newStackDistance(cp.Beta, maxDelay),
			prefix: "http://" + p.Name + ".synth.example/" + cp.Class.Short() + "/d",
		}
		if cp.Ext != "" {
			st.suffix = "." + cp.Ext
		}
		g.classes = append(g.classes, st)
		cum += cp.RequestShare * (1 - cp.CorrProb)
		g.classCum = append(g.classCum, cum)
	}
	return g, nil
}

// Total returns the number of requests the generator will emit.
func (g *Generator) Total() int { return g.total }

// Next implements trace.Reader: it emits the next request, or io.EOF
// once the configured count has been produced. The caller owns the
// returned request, but it shares one allocation, a slab, with up to 255
// others: keeping any of them keeps the whole slab, as a file reader's
// block does.
func (g *Generator) Next() (*trace.Request, error) {
	if g.emitted >= g.total {
		return nil, io.EOF
	}
	g.emitted++
	g.now += g.interArrival()

	st, doc, client := g.pickTarget()

	d := &st.docs[doc]
	if d.size == 0 {
		d.size = st.logn.Sample(g.rng)
		d.name = st.name(doc)
	} else if g.rng.Float64() < st.prof.ModifyProb {
		d.size = modifySize(g.rng, d.size)
	}
	size := d.size

	transfer := size
	if g.rng.Float64() < st.prof.InterruptProb {
		// Deliver 5–70% of the document: far enough from the full size
		// that the simulator's 5% rule reads it as an interruption.
		frac := 0.05 + 0.65*g.rng.Float64()
		transfer = int64(float64(size) * frac)
		if transfer < 1 {
			transfer = 1
		}
	}

	if len(g.slab) == 0 {
		g.slab = make([]trace.Request, min(slabLen, g.total-g.emitted+1))
	}
	r := &g.slab[0]
	g.slab = g.slab[1:]
	r.UnixMillis = g.now
	r.URL = d.name
	r.Status = 200
	r.TransferSize = transfer
	r.DocSize = size
	r.ContentType = st.prof.ContentType
	r.Class = st.prof.Class
	r.Client = g.clientName(client)
	r.Method = "GET"
	return r, nil
}

// interArrival draws the next request gap. With a diurnal amplitude, the
// exponential mean is scaled by the inverse of the instantaneous rate
// factor 1 + A·sin(2π·(hour−peakShift)/24), which peaks mid-afternoon.
func (g *Generator) interArrival() int64 {
	mean := g.prof.MeanInterArrivalMillis
	if a := g.prof.DiurnalAmplitude; a > 0 {
		const millisPerDay = 24 * 60 * 60 * 1000
		// Shift so the peak lands around 15:00 and the trough around
		// 03:00 local time.
		phase := 2 * math.Pi * (float64(g.now%millisPerDay)/millisPerDay - 0.375)
		mean /= 1 + a*math.Sin(phase)
	}
	return int64(g.rng.ExpFloat64()*mean) + 1
}

// clientName formats a client identifier as a 10.x.y.z address, caching
// the string per client.
func (g *Generator) clientName(client int32) string {
	if g.clients == nil {
		return "synth"
	}
	if s := g.clientNames[client]; s != "" {
		return s
	}
	s := fmt.Sprintf("10.%d.%d.%d", client>>16&255, client>>8&255, client&255)
	g.clientNames[client] = s
	return s
}

// pickTarget chooses the request target: a due scheduled re-reference if
// one exists, otherwise a fresh Zipf popularity draw in a class sampled by
// the corrected fresh-draw shares. Either way, a follow-up re-reference is
// scheduled with the class's correlation probability.
func (g *Generator) pickTarget() (*classState, int32, int32) {
	var (
		ci     int
		doc    int32
		client int32
	)
	// ref is the heap handle of the follow-up: the one just popped, when
	// there is one, so a correlation chain reuses a single handle.
	var ref *pqueue.Item[pendingRef]
	if it, err := g.pending.Min(); err == nil && it.Priority() <= float64(g.emitted) {
		ref, _ = g.pending.PopMin()
		ci, doc, client = ref.Value.class, ref.Value.doc, ref.Value.client
	} else {
		u := g.rng.Float64() * g.classCum[len(g.classCum)-1]
		ci = sort.SearchFloat64s(g.classCum, u)
		if ci >= len(g.classes) {
			ci = len(g.classes) - 1
		}
		doc = int32(g.classes[ci].zipf.Sample(g.rng))
		if g.clients != nil {
			client = int32(g.clients.Sample(g.rng))
		}
	}
	st := g.classes[ci]
	if g.rng.Float64() < st.prof.CorrProb {
		d := st.dist.sample(g.rng)
		if ref == nil {
			ref = new(pqueue.Item[pendingRef])
		}
		ref.Value = pendingRef{class: ci, doc: doc, client: client}
		g.pending.Push(ref, float64(g.emitted+d))
	}
	return st, doc, client
}

// name builds a document's URL: one allocation when it fits 64 bytes.
func (st *classState) name(doc int32) string {
	var buf [64]byte
	b := append(buf[:0], st.prefix...)
	b = strconv.AppendInt(b, int64(doc), 10)
	return string(append(b, st.suffix...))
}

// modifySize perturbs a document size by 0.5–4.5% in either direction —
// inside the simulator's 5% modification window.
func modifySize(rng *rand.Rand, size int64) int64 {
	frac := 0.005 + 0.04*rng.Float64()
	if rng.Intn(2) == 0 {
		frac = -frac
	}
	ns := int64(float64(size) * (1 + frac))
	if ns == size {
		ns = size + 1
	}
	if ns < 64 {
		ns = 64
	}
	return ns
}

// Generate materializes a full trace as a request slice. Its requests
// come from Next, so each shares a slab with up to 255 others.
func Generate(p *Profile, opts Options) ([]*trace.Request, error) {
	g, err := NewGenerator(p, opts)
	if err != nil {
		return nil, err
	}
	out := make([]*trace.Request, 0, g.Total())
	for {
		r, err := g.Next()
		if err != nil {
			return out, nil
		}
		out = append(out, r)
	}
}

// WriteAll streams the generator's remaining requests into w and
// returns the number written.
func (g *Generator) WriteAll(w trace.Writer) (int64, error) {
	var n int64
	for {
		r, err := g.Next()
		if err != nil {
			return n, nil
		}
		if err := w.Write(r); err != nil {
			return n, fmt.Errorf("synth: write request %d: %w", n, err)
		}
		n++
	}
}
