package core

import (
	"errors"
	"fmt"
	"slices"

	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
)

// Config parameterizes one simulation run.
type Config struct {
	// Capacity is the cache size in bytes. It must be positive.
	Capacity int64
	// Policy creates the replacement scheme under test.
	Policy policy.Factory
	// WarmupFraction is the share of requests used to fill the cache
	// before measurement starts; the paper uses 0.10. A negative value
	// selects 0 (measure from the first request); 0 selects the default.
	WarmupFraction float64
	// SampleEvery enables the occupancy time series: a sample is recorded
	// every SampleEvery requests. 0 disables sampling.
	SampleEvery int64
	// Admission configures an admission filter in front of the policy
	// (see internal/admission). The zero value admits everything.
	Admission policy.AdmitterFactory
}

// DefaultWarmupFraction is the paper's cold-start rule: 10% of the total
// requests fill the cache before hit rates are measured.
const DefaultWarmupFraction = 0.10

// ErrBadConfig reports an invalid simulation configuration.
var ErrBadConfig = errors.New("core: invalid config")

// resolveWarmup turns a warmup fraction into a request count over a
// workload of n requests, applying the Config.WarmupFraction conventions
// (0 selects the paper's default, negative selects no warmup).
func resolveWarmup(frac float64, n int) (int64, error) {
	switch {
	case frac == 0:
		frac = DefaultWarmupFraction
	case frac < 0:
		frac = 0
	case !(frac < 1): // NaN compares false with everything, so not ">= 1"
		return 0, errBadConfig("warmup fraction %v must be < 1", frac)
	}
	return int64(frac * float64(n)), nil
}

// docChunk is the number of Docs per slab chunk of a docTable: a power of
// two, so that indexing is a shift and a mask.
const (
	docChunkBits = 12
	docChunk     = 1 << docChunkBits
)

// docTable maps a DocID to the document's Doc: one Doc per document, used
// across every evict/re-insert cycle, so replay allocates nothing per
// event. The Docs live in fixed-size chunks rather than one slice because
// policies keep pointers into them (the heap handle and list node are
// embedded in the Doc): a table that grows — StreamSimulator's does, a
// document at a time — may add chunks but must never move a Doc.
type docTable struct {
	chunks []*[docChunk]policy.Doc
	n      int
}

// at returns the Doc of a known document.
func (t *docTable) at(id int32) *policy.Doc {
	return &t.chunks[uint32(id)>>docChunkBits][uint32(id)%docChunk]
}

// add appends the Doc of the next document ID.
func (t *docTable) add(key string, class doctype.Class) {
	if t.n == len(t.chunks)*docChunk {
		t.chunks = append(t.chunks, new([docChunk]policy.Doc))
	}
	id := int32(t.n)
	t.n++
	*t.at(id) = policy.Doc{Key: key, ID: id, Class: class}
}

// Simulator replays a Workload against one policy at one cache size.
type Simulator struct {
	cfg Config
	pol policy.Policy
	adm policy.Admitter // nil when admission is disabled
	// w is the workload whose documents the tables below cover. The
	// first Process sets them up, not NewSimulator: a sweep's waiting
	// cells hold no per-document memory, and a sweep worker hands its
	// finished cell's tables to its next cell, which re-initialises them
	// in place. Nil for a StreamSimulator's inner simulator, which grows
	// its tables itself.
	w      *Workload
	docs   docTable // DocID -> the document's Doc
	in     []bool   // DocID -> currently resident
	used   int64
	result Result

	residentDocs  [doctype.NumClasses + 1]int64
	residentBytes [doctype.NumClasses + 1]int64

	processed int64
	warmup    int64
	sample    int64
}

// NewSimulator prepares a simulator for the given workload. The workload
// is shared and never mutated; the simulator allocates only its own
// per-document tables, when it processes its first event (a sweep cell
// reuses its worker's instead).
func NewSimulator(w *Workload, cfg Config) (*Simulator, error) {
	warmup, err := resolveWarmup(cfg.WarmupFraction, w.NumRequests())
	if err != nil {
		return nil, err
	}
	return newSimulator(w, cfg, warmup)
}

// newSimulator checks what every simulator's configuration must satisfy
// and builds the policy instance with, when configured, the admission
// filter in front of it. w is nil for a StreamSimulator's inner simulator.
func newSimulator(w *Workload, cfg Config, warmup int64) (*Simulator, error) {
	if cfg.Capacity <= 0 {
		return nil, errBadConfig("capacity %d must be positive", cfg.Capacity)
	}
	if cfg.Policy.New == nil {
		return nil, errBadConfig("policy factory is nil")
	}
	s := &Simulator{
		cfg:    cfg,
		pol:    cfg.Policy.New(),
		w:      w,
		warmup: warmup,
		sample: cfg.SampleEvery,
		result: Result{
			Policy:         cfg.Policy.Name,
			Capacity:       cfg.Capacity,
			WarmupRequests: warmup,
		},
	}
	if cfg.Admission.New != nil {
		s.adm = cfg.Admission.New(cfg.Capacity)
		s.result.Admission = cfg.Admission.Name
	}
	return s, nil
}

// Outcome reports how the cache disposed of one request.
type Outcome uint8

// The possible request dispositions.
const (
	// OutcomeHit is a cache hit.
	OutcomeHit Outcome = iota + 1
	// OutcomeMiss is a plain miss (document absent).
	OutcomeMiss
	// OutcomeModified is a miss caused by a document modification
	// invalidating the cached copy.
	OutcomeModified
)

// Hit reports whether the outcome is a cache hit.
func (o Outcome) Hit() bool { return o == OutcomeHit }

// String names the outcome: hit, miss or modified.
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeMiss:
		return "miss"
	case OutcomeModified:
		return "modified"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Run replays the whole workload and returns the result.
func (s *Simulator) Run(w *Workload) *Result {
	s.run(w, 0, w.NumRequests())
	return s.Result()
}

// run replays events [lo, hi) of w. It is the one replay loop: Run calls
// it once, a journaled sweep cell once per progress tick, so journaling
// adds nothing per event.
func (s *Simulator) run(w *Workload, lo, hi int) {
	for i := lo; i < hi; i++ {
		ev := w.replayEvent(i)
		s.Process(&ev)
	}
}

// allocTables initialises the per-document tables over the workload's
// documents, in place when the simulator holds tables a finished sweep
// cell handed on: every Doc is reassigned, so no heap handle or list node
// of the previous policy survives, and in is cleared.
func (s *Simulator) allocTables() {
	n := s.w.NumDocs()
	s.in = slices.Grow(s.in[:0], n)[:n]
	clear(s.in)
	s.docs.n = 0 // add refills the chunks it has before it allocates one
	for id, key := range s.w.Keys() {
		s.docs.add(key, s.w.cols.DocClass[id])
	}
}

// Process replays a single event and reports its disposition (the miss
// stream is what a parent cache in a hierarchy sees).
func (s *Simulator) Process(ev *Event) Outcome {
	if s.processed == 0 && s.w != nil {
		s.allocTables()
	}
	s.processed++
	measured := s.processed > s.warmup

	if s.adm != nil && ev.DocSize <= s.cfg.Capacity {
		// Every reference the cache could hold — hit or miss — feeds the
		// admitter's frequency estimate, before the request's own outcome
		// is decided. The store refuses a larger document before it
		// touches it, so the simulator does not count one either.
		s.adm.Touch(s.docs.at(ev.DocID))
	}

	resident := s.in[ev.DocID]
	hit := resident && !ev.Modified

	if measured {
		s.count(ev, hit)
	}

	outcome := OutcomeMiss
	switch {
	case hit:
		outcome = OutcomeHit
		doc := s.docs.at(ev.DocID)
		// A resident document may have grown through a completed transfer
		// after an earlier interruption; recharge the difference. Making
		// room for the growth can evict the document itself, in which case
		// the policy must not see a Hit for it.
		if doc.Size != ev.DocSize {
			s.recharge(doc, ev.DocSize)
		}
		if s.in[ev.DocID] {
			s.pol.Hit(doc)
		}
	case resident:
		// Modified: the cached copy is stale; drop and refetch.
		outcome = OutcomeModified
		if measured {
			s.result.Modifications++
		}
		s.remove(s.docs.at(ev.DocID), ev.DocID)
		s.insert(ev, measured)
	default:
		s.insert(ev, measured)
	}

	if s.sample > 0 && s.processed%s.sample == 0 {
		s.takeSample()
	}
	return outcome
}

// Result finalizes and returns the accumulated result. It may be called
// repeatedly; each call reflects the events processed so far.
func (s *Simulator) Result() *Result {
	r := s.result
	for _, c := range doctype.Classes {
		r.Overall.add(r.ByClass[c])
	}
	if s.adm != nil {
		c := s.adm.Counts()
		r.Admitted = c.Admitted
		r.AdmissionRejects = c.Rejected
		r.GhostHits = c.GhostHits
	}
	return &r
}

// Used returns the current cache occupancy in bytes (for tests).
func (s *Simulator) Used() int64 { return s.used }

func (s *Simulator) count(ev *Event, hit bool) {
	c := &s.result.ByClass[ev.Class]
	c.Requests++
	c.ReqBytes += ev.TransferSize
	if hit {
		c.Hits++
		c.HitBytes += ev.TransferSize
	}
}

func (s *Simulator) insert(ev *Event, measured bool) {
	size := ev.DocSize
	if size > s.cfg.Capacity {
		if measured {
			s.result.Uncachable++
		}
		return
	}
	doc := s.docs.at(ev.DocID)
	doc.Size = size
	if s.used+size > s.cfg.Capacity && !policy.Admits(s.adm, s.pol, doc) {
		return // refused before anything is evicted: the cache is untouched
	}
	for s.used+size > s.cfg.Capacity {
		victim, ok := s.pol.Evict()
		if !ok {
			return // The policy tracks nothing; should be unreachable.
		}
		s.evicted(victim)
	}
	s.in[ev.DocID] = true
	s.used += size
	s.residentDocs[ev.Class]++
	s.residentBytes[ev.Class] += size
	s.pol.Insert(doc)
	if s.adm != nil {
		s.adm.Inserted(doc)
	}
}

// evicted settles accounting after the policy returned a victim. The
// pointer-identity check guards against a broken policy fabricating a Doc
// that merely shares an ID with a tracked document.
func (s *Simulator) evicted(victim *policy.Doc) {
	s.result.Evictions++
	s.used -= victim.Size
	s.residentDocs[victim.Class]--
	s.residentBytes[victim.Class] -= victim.Size
	if id := victim.ID; s.docs.at(id) == victim {
		s.in[id] = false
	}
	if s.adm != nil {
		s.adm.Evicted(victim)
	}
}

func (s *Simulator) remove(doc *policy.Doc, id int32) {
	s.pol.Remove(doc)
	s.used -= doc.Size
	s.residentDocs[doc.Class]--
	s.residentBytes[doc.Class] -= doc.Size
	s.in[id] = false
}

// recharge adjusts occupancy when a resident document's recorded size
// changed without a modification (completed transfer after an earlier
// interruption). If the grown document no longer fits, room is made as on
// insert.
func (s *Simulator) recharge(doc *policy.Doc, newSize int64) {
	delta := newSize - doc.Size
	s.residentBytes[doc.Class] += delta
	s.used += delta
	doc.Size = newSize
	for s.used > s.cfg.Capacity {
		victim, ok := s.pol.Evict()
		if !ok {
			return
		}
		s.evicted(victim)
	}
}

func (s *Simulator) takeSample() {
	sample := OccupancySample{Request: s.processed}
	for _, c := range doctype.Classes {
		sample.Docs[c] = s.residentDocs[c]
		sample.Bytes[c] = s.residentBytes[c]
		sample.TotalDocs += s.residentDocs[c]
		sample.TotalBytes += s.residentBytes[c]
	}
	s.result.Occupancy = append(s.result.Occupancy, sample)
}
