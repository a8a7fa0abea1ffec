package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"webcachesim/internal/admission"
	"webcachesim/internal/cache"
	"webcachesim/internal/cluster"
	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/flight"
	"webcachesim/internal/metrics"
	"webcachesim/internal/mrc"
	"webcachesim/internal/policy"
	"webcachesim/internal/pool"
	"webcachesim/internal/proxy"
	"webcachesim/internal/trace"
)

// The [direct] layer runs: the workload's own request stream replayed
// through each layer's public functions in isolation, one span per batch
// of calls. They answer "what does this layer cost on this stream" without
// a socket in the way; the [e2e] and [scrape] numbers say what it cost in
// the running system.

// batchTime is how long each [direct] measurement keeps repeating its
// batch before it divides time by operations.
const batchTime = 60 * time.Millisecond

// handlerDocs bounds how many distinct documents the handler runs touch.
const handlerDocs = 4096

// minReps is the fewest repetitions of a batch a [direct] measurement
// takes its median over.
const minReps = 3

// bencher times batches of calls into one layer.
type bencher struct {
	rec *recorder
	// atLeast is how long a measurement keeps repeating its batch
	// (batchTime outside tests).
	atLeast time.Duration
}

// run repeats batch until b.atLeast has passed, minReps times at least,
// and returns nanoseconds per operation: the median over the repetitions,
// so that one repetition caught in a slow spell of the machine does not
// set the figure. batch reports how many operations it performed. Each
// repetition is one span.
func (b bencher) run(name string, batch func() int) float64 {
	return b.runFresh(name, func() func() int { return batch })
}

// runFresh is run for a batch that consumes its state: prepare builds
// fresh state, untimed, before every repetition.
func (b bencher) runFresh(name string, prepare func() func() int) float64 {
	var (
		total time.Duration
		perOp []float64
	)
	for len(perOp) < minReps || total < b.atLeast {
		batch := prepare()
		ops := 0
		took := b.rec.timed(name, func() { ops = batch() })
		if ops == 0 {
			return 0 // nothing on this stream exercises the layer
		}
		total += took
		perOp = append(perOp, float64(took.Nanoseconds())/float64(ops))
	}
	return median(perOp)
}

// layerConfig is the cache configuration the [direct] runs of cache,
// policy and proxy use: the workload's own.
type layerConfig struct {
	policy    policy.Factory
	admission policy.AdmitterFactory
	capacity  int64
	shards    int
}

func (spec servingSpec) layerConfig() (layerConfig, error) {
	ps, err := policy.ParseSpec(spec.policy)
	if err != nil {
		return layerConfig{}, err
	}
	f, err := policy.NewFactory(ps)
	if err != nil {
		return layerConfig{}, err
	}
	a, err := admission.ParseSpec(spec.admission)
	if err != nil {
		return layerConfig{}, err
	}
	return layerConfig{policy: f, admission: a, capacity: spec.capacity, shards: spec.shards}, nil
}

// memOrigin is the in-memory RoundTripper behind the handler runs: the
// stub origin without the socket.
type memOrigin struct {
	docs   []doc
	byPath map[string]int32
}

func (m *memOrigin) RoundTrip(r *http.Request) (*http.Response, error) {
	id, ok := m.byPath[r.URL.Path]
	if !ok {
		return nil, fmt.Errorf("memOrigin: unknown path %s", r.URL.Path)
	}
	d := &m.docs[id]
	h := make(http.Header, 2)
	if d.ctype != "" {
		h["Content-Type"] = []string{d.ctype}
	}
	h["Content-Length"] = []string{contentLength(d.size)}
	return &http.Response{
		StatusCode: http.StatusOK, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h, ContentLength: d.size, Request: r,
		Body: &patternBody{pos: int(d.off), left: d.size},
	}, nil
}

// patternBody reads a document's rotation of the pattern.
type patternBody struct {
	pos  int
	left int64
}

func (p *patternBody) Read(b []byte) (int, error) {
	if p.left == 0 {
		return 0, io.EOF
	}
	n := min(len(b), patternLen-p.pos)
	if int64(n) > p.left {
		n = int(p.left)
	}
	copy(b, pattern[p.pos:p.pos+n])
	p.pos = (p.pos + n) % patternLen
	p.left -= int64(n)
	return n, nil
}

func (p *patternBody) Close() error { return nil }

// nopWriter is the in-memory ResponseWriter of the handler runs; its
// header map is reused, so a handler that allocates shows as allocating.
type nopWriter struct {
	h http.Header
}

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) WriteHeader(int)             {}
func (w *nopWriter) Write(b []byte) (int, error) { return len(b), nil }

// handlerServer builds a proxy whose origin is in memory.
func handlerServer(mo *memOrigin, cfg layerConfig, reg *metrics.Registry) (*proxy.Server, error) {
	return proxy.New(proxy.Config{
		Capacity:  cfg.capacity,
		Policy:    cfg.policy,
		Admission: cfg.admission,
		Shards:    cfg.shards,
		Metrics:   reg,
		Origin:    &url.URL{Scheme: "http", Host: "origin.bench"},
		Transport: mo,
		Buffers:   pool.New(),
	})
}

// handlerRequests pre-builds one *http.Request per distinct document in
// first-appearance order, up to handlerDocs.
func handlerRequests(in *input) ([]*http.Request, error) {
	n := min(len(in.docs), handlerDocs)
	reqs := make([]*http.Request, n)
	for i := 0; i < n; i++ {
		r, err := http.NewRequest(http.MethodGet, "http://bench.local"+in.docs[i].path, nil)
		if err != nil {
			return nil, err
		}
		r.RequestURI = in.docs[i].path
		r.RemoteAddr = "127.0.0.1:1"
		reqs[i] = r
	}
	return reqs, nil
}

// directProxy measures proxy.Server.ServeHTTP with an in-memory
// ResponseWriter and RoundTripper, and a scrape of its registry.
func directProxy(rep *runReport, b bencher, in *input, cfg layerConfig) error {
	reqs, err := handlerRequests(in)
	if err != nil {
		return err
	}
	mo := &memOrigin{docs: in.docs, byPath: pathIndex(in.docs)}
	reg := metrics.NewRegistry()
	srv, err := handlerServer(mo, cfg, reg)
	if err != nil {
		return err
	}
	w := &nopWriter{h: make(http.Header)}
	// Warm twice, then keep the requests the cache answers itself: with a
	// small cache and an admission filter that is a subset.
	var hot []*http.Request
	for round := 0; round < 3; round++ {
		hot = hot[:0]
		for _, r := range reqs {
			clear(w.h)
			srv.ServeHTTP(w, r)
			if v := w.h["X-Cache"]; len(v) == 1 && v[0] == "HIT" {
				hot = append(hot, r)
			}
		}
	}
	hitNs := b.run("proxy.handler_hit", func() int {
		for _, r := range hot {
			srv.ServeHTTP(w, r)
		}
		return len(hot)
	})
	rep.set("proxy.handler_hit_ns", hitNs)
	var allocs uint64
	if len(hot) > 0 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range hot {
			srv.ServeHTTP(w, r)
		}
		runtime.ReadMemStats(&after)
		// Whole allocations per call, as testing.AllocsPerRun counts: a
		// stray allocation elsewhere in the process does not read as a
		// fraction of one per hit.
		allocs = (after.Mallocs - before.Mallocs) / uint64(len(hot))
	}
	rep.set("proxy.handler_hit_allocs", float64(allocs))

	var prepErr error
	missNs := b.runFresh("proxy.handler_miss", func() func() int {
		cold, err := handlerServer(mo, cfg, metrics.NewRegistry())
		if err != nil {
			prepErr = err
			return func() int { return 0 }
		}
		return func() int {
			for _, r := range reqs {
				cold.ServeHTTP(w, r)
			}
			return len(reqs)
		}
	})
	if prepErr != nil {
		return prepErr
	}
	rep.set("proxy.handler_miss_ns", missNs)

	var scrapeErr error
	scrapeNs := b.run("metrics.scrape", func() int {
		if err := reg.WriteText(io.Discard); err != nil {
			scrapeErr = err
		}
		return 1
	})
	if scrapeErr != nil {
		return scrapeErr
	}
	rep.set("metrics.scrape_ms", scrapeNs/1e6)
	return nil
}

// zeros backs the bodies of the cache run's entries: the store charges
// Doc.Size and never reads the bytes.
var zeros = make([]byte, proxy.DefaultMaxObjectBytes)

// directCache replays the stream through cache.Cache as the proxy drives
// it — Get, and on a miss Insert — then measures lookups alone.
func directCache(rep *runReport, b bencher, in *input, cfg layerConfig) error {
	var (
		store *cache.Cache // the last replay's, kept for the lookup runs
		tot   struct {
			gets, hits, inserts, rejected int
			evictions                     int64
			insertTime                    time.Duration
		}
		newErr error
	)
	b.runFresh("cache.replay", func() func() int {
		c, err := cache.New(cache.Config{Capacity: cfg.capacity, Shards: cfg.shards, Policy: cfg.policy, Admission: cfg.admission})
		if err != nil {
			newErr = err
			return func() int { return 0 }
		}
		store = c
		return func() int {
			for _, id := range in.list {
				d := &in.docs[id]
				tot.gets++
				if e, ok := c.Get(d.url); ok {
					tot.hits++
					e.Release()
					continue
				}
				if d.size > proxy.DefaultMaxObjectBytes {
					continue // the proxy streams these through uncached
				}
				// Inserts are timed one by one: they are the rare, slow
				// call of the mix, and the two clock reads cost a small
				// share of one.
				t0 := time.Now()
				e := cache.NewEntry(&policy.Doc{Key: d.url, Size: d.size, Class: d.class}, zeros[:d.size], d.ctype, http.StatusOK, time.Time{})
				out := c.Insert(d.url, e)
				e.Release()
				tot.insertTime += time.Since(t0)
				tot.inserts++
				if out != cache.SetStored {
					tot.rejected++
				}
			}
			tot.evictions += c.Evictions()
			return len(in.list)
		}
	})
	if newErr != nil {
		return newErr
	}
	inserts := float64(max(tot.inserts, 1))
	rep.set("cache.insert_ns", float64(tot.insertTime.Nanoseconds())/inserts)
	rep.set("cache.reject_share", float64(tot.rejected)/inserts)
	rep.set("cache.evictions_per_insert", float64(tot.evictions)/inserts)
	rep.set("cache.hit_ratio", float64(tot.hits)/float64(max(tot.gets, 1)))

	lookups := func() int {
		for _, id := range in.list {
			if e, ok := store.Get(in.docs[id].url); ok {
				e.Release()
			}
		}
		return len(in.list)
	}
	one := b.run("cache.get", lookups)
	rep.set("cache.get_ns", one)
	// Two goroutines each doing the whole list: per-goroutine cost over
	// the single-goroutine cost is the throughput ratio.
	two := b.run("cache.get_c2", func() int {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() { defer wg.Done(); lookups() }()
		}
		wg.Wait()
		return 2 * len(in.list)
	})
	rep.set("cache.get_scaling_c2", one/two)
	return nil
}

// directPolicy drives each study scheme with the Hit/Insert/Evict mix the
// stream produces at the given capacity.
func directPolicy(rep *runReport, b bencher, in *input, capacity int64) {
	for i, f := range policy.StudyFactories() {
		ns := b.runFresh("policy."+studySchemes[i], func() func() int {
			p := f.New()
			docs := make([]*policy.Doc, len(in.docs))
			resident := make([]bool, len(in.docs))
			return func() int {
				var used int64
				ops := 0
				for _, id := range in.list {
					if resident[id] {
						p.Hit(docs[id])
						ops++
						continue
					}
					d := &in.docs[id]
					if d.size > capacity {
						continue
					}
					if docs[id] == nil {
						docs[id] = &policy.Doc{Key: d.url, ID: id, Size: d.size, Class: d.class}
					}
					for used+d.size > capacity {
						v, ok := p.Evict()
						if !ok {
							break
						}
						ops++
						used -= v.Size
						resident[v.ID] = false
					}
					p.Insert(docs[id])
					ops++
					used += d.size
					resident[id] = true
				}
				return ops
			}
		})
		rep.set("policy."+studySchemes[i]+".ns_per_op", ns)
	}
}

// directAdmission drives each admission filter the way core.Simulator
// does: Touch on every reference, and for a document that needs room a
// contest against each prospective victim before it is evicted.
func directAdmission(rep *runReport, b bencher, in *input, capacity int64) error {
	for _, name := range []string{"tinylfu", "arc-ghost"} {
		f, err := admission.ParseSpec(name)
		if err != nil {
			return err
		}
		ns := b.runFresh("admission."+name, func() func() int {
			a := f.New(capacity)
			docs := make([]*policy.Doc, len(in.docs))
			resident := make([]bool, len(in.docs))
			// fifo stands in for the replacement policy: the victim is
			// the oldest admitted document.
			var fifo []int32
			var used int64
			return func() int {
				for _, id := range in.list {
					d := &in.docs[id]
					if docs[id] == nil {
						docs[id] = &policy.Doc{Key: d.url, ID: id, Size: d.size, Class: d.class}
					}
					a.Touch(docs[id])
					if resident[id] || d.size > capacity {
						continue
					}
					admitted := true
					for used+d.size > capacity && len(fifo) > 0 {
						v := fifo[0]
						if !a.Admit(docs[id], docs[v]) {
							admitted = false
							break
						}
						fifo = fifo[1:]
						resident[v] = false
						used -= docs[v].Size
						a.Evicted(docs[v])
					}
					if !admitted {
						continue
					}
					a.Inserted(docs[id])
					resident[id] = true
					used += d.size
					fifo = append(fifo, id)
				}
				return len(in.list)
			}
		})
		rep.set("admission."+name+".admit_ns", ns)
	}
	return nil
}

// directSmall measures the layers whose unit of work is one short call.
func directSmall(rep *runReport, b bencher, in *input) error {
	p := pool.New()
	rep.set("pool.get_release_ns", b.run("pool.get_release", func() int {
		for _, id := range in.list {
			p.Get(int(in.docs[id].size)).Release()
		}
		return len(in.list)
	}))

	var g flight.Group
	nothing := func() (any, error) { return nil, nil }
	const calls = 20000
	rep.set("flight.do_ns", b.run("flight.do", func() int {
		for i := 0; i < calls; i++ {
			_, _, _ = g.Do("key", nothing) // nothing cannot fail
		}
		return calls
	}))
	// Both goroutines make all the calls; the time is what each of them
	// waited for its own.
	rep.set("flight.do_ns_c2", b.run("flight.do_c2", func() int {
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					_, _, _ = g.Do("key", nothing) // as above
				}
			}()
		}
		wg.Wait()
		return calls
	}))

	reg := metrics.NewRegistry()
	counter := reg.NewCounter("bench_counter_total", "Benchmark counter.")
	vec := reg.NewCounterVec("bench_class_total", "Benchmark counter vector.", "class")
	hist := reg.NewHistogram("bench_seconds", "Benchmark histogram.", metrics.DefaultLatencyBuckets())
	rep.set("metrics.inc_ns", b.run("metrics.inc", func() int {
		for range in.list {
			counter.Inc()
		}
		return len(in.list)
	}))
	rep.set("metrics.vec_with_ns", b.run("metrics.vec_with", func() int {
		for _, id := range in.list {
			vec.With(classNames[in.docs[id].class-1]).Inc()
		}
		return len(in.list)
	}))
	rep.set("metrics.observe_ns", b.run("metrics.observe", func() int {
		for _, id := range in.list {
			hist.Observe(float64(in.docs[id].size) * 1e-7)
		}
		return len(in.list)
	}))

	ring, err := cluster.NewRing([]string{"n1", "n2", "n3"}, 0)
	if err != nil {
		return err
	}
	var sink int
	rep.set("cluster.route_key_ns", b.run("cluster.route_key", func() int {
		for _, id := range in.list {
			sink += len(cluster.RouteKey(in.docs[id].url))
		}
		return len(in.list)
	}))
	rep.set("cluster.owner_ns", b.run("cluster.owner", func() int {
		for _, id := range in.list {
			sink += len(ring.Owner(in.docs[id].path))
		}
		return len(in.list)
	}))
	var hsink uint64
	rep.set("trace.hash64_ns", b.run("trace.hash64", func() int {
		for _, id := range in.list {
			hsink ^= trace.Hash64(in.docs[id].url)
		}
		return len(in.list)
	}))
	rep.set("doctype.classify_ns", b.run("doctype.classify", func() int {
		for _, id := range in.list {
			sink += int(doctype.Classify(in.docs[id].ctype, in.docs[id].url))
		}
		return len(in.list)
	}))
	if sink < 0 || hsink == 1 {
		return errors.New("unreachable: keeps the measured results alive")
	}
	return nil
}

// drain reads a trace reader to its end and returns the record count.
func drain(r trace.Reader) (int, error) {
	n := 0
	for {
		if _, err := r.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, err
		}
		n++
	}
}

// directTrace measures the decoders on the stream encoded in memory, and
// the WCT3 image through a file, since mapping a file is what it is for.
func directTrace(rep *runReport, b bencher, in *input, w *core.Workload, dir string) error {
	var squid, squidGz, wct2 bytes.Buffer
	sw := trace.NewSquidWriter(&squid)
	gz := gzip.NewWriter(&squidGz)
	gw := trace.NewSquidWriter(gz)
	iw := trace.NewInternedWriter(&wct2)
	for _, r := range in.reqs {
		if err := errors.Join(sw.Write(r), gw.Write(r), iw.Write(r)); err != nil {
			return fmt.Errorf("encode stream: %w", err)
		}
	}
	if err := errors.Join(sw.Flush(), gw.Flush(), gz.Close(), iw.Flush()); err != nil {
		return fmt.Errorf("encode stream: %w", err)
	}
	var derr error
	decode := func(open func() (trace.Reader, error)) func() int {
		return func() int {
			r, err := open()
			if err != nil {
				derr = err
				return 0
			}
			n, err := drain(r)
			if err != nil {
				derr = err
			}
			return n
		}
	}
	plain := b.run("trace.squid_decode", decode(func() (trace.Reader, error) {
		return trace.NewSquidReader(bytes.NewReader(squid.Bytes())), nil
	}))
	zipped := b.run("trace.squid_gz_decode", decode(func() (trace.Reader, error) {
		zr, err := gzip.NewReader(bytes.NewReader(squidGz.Bytes()))
		if err != nil {
			return nil, err
		}
		return trace.NewSquidReader(zr), nil
	}))
	interned := b.run("trace.wct2_decode", decode(func() (trace.Reader, error) {
		return trace.NewInternedReader(bytes.NewReader(wct2.Bytes())), nil
	}))
	if derr != nil {
		return fmt.Errorf("decode stream: %w", derr)
	}
	rep.set("trace.squid_decode_ns", plain)
	rep.set("trace.wct2_decode_ns", interned)
	rep.set("trace.gzip_share", 1-plain/zipped)

	image := filepath.Join(dir, "stream.wci3")
	if err := w.WriteColumnar(image); err != nil {
		return err
	}
	openNs := b.run("trace.wct3_open", func() int {
		_, m, err := core.OpenColumnarWorkload(image)
		if err != nil {
			derr = err
			return 1
		}
		if err := m.Close(); err != nil {
			derr = err
		}
		return 1
	})
	if derr != nil {
		return fmt.Errorf("open columnar: %w", derr)
	}
	rep.set("trace.wct3_open_ms", openNs/1e6)
	return nil
}

// workloadSource adapts core.Workload to mrc.Source, as core does
// internally for its own MRC pass.
type workloadSource struct{ w *core.Workload }

func (s workloadSource) NumRequests() int { return s.w.NumRequests() }
func (s workloadSource) NumDocs() int     { return s.w.NumDocs() }
func (s workloadSource) Request(i int) mrc.Request {
	ev := s.w.Event(i)
	return mrc.Request{DocID: ev.DocID, Class: ev.Class, Modified: ev.Modified, DocSize: ev.DocSize, TransferSize: ev.TransferSize}
}

// directCore measures workload building, per-scheme replay at the class
// cell's capacity, streaming replay, the MRC scan and the journal's cost.
func directCore(rep *runReport, b bencher, in *input, w *core.Workload) error {
	n := len(in.reqs)
	var cerr error
	rep.set("core.build_ns_per_event", b.run("core.build", func() int {
		if _, err := core.BuildWorkload(trace.NewSliceReader(in.reqs), 0); err != nil {
			cerr = err
		}
		return n
	}))
	caps := capacities(w)
	capacity := caps[1]
	warmup := int64(core.DefaultWarmupFraction * float64(w.NumRequests()))
	for i, f := range policy.StudyFactories() {
		rep.set("core.replay_ns_per_event."+studySchemes[i], b.runFresh("core.replay."+studySchemes[i], func() func() int {
			sim, err := core.NewSimulator(w, core.Config{Capacity: capacity, Policy: f})
			if err != nil {
				cerr = err
				return func() int { return 0 }
			}
			return func() int { sim.Run(w); return w.NumRequests() }
		}))
	}
	gdstarP := policy.StudyFactories()[len(studySchemes)-1]
	rep.set("core.stream_ns_per_event", b.runFresh("core.stream", func() func() int {
		ss, err := core.NewStreamSimulator(core.Config{Capacity: capacity, Policy: gdstarP}, w.ModifyThreshold())
		if err != nil {
			cerr = err
			return func() int { return 0 }
		}
		return func() int {
			if _, err := ss.Run(trace.NewSliceReader(in.reqs), warmup); err != nil {
				cerr = err
			}
			return n
		}
	}))
	rep.set("mrc.compute_ns_per_event", b.run("mrc.compute", func() int {
		if _, err := mrc.ComputeLRU(workloadSource{w}, mrc.Config{Capacities: caps, WarmupRequests: warmup}); err != nil {
			cerr = err
		}
		return w.NumRequests()
	}))
	// Journal cost: the six schemes at one capacity, with and without a
	// journal, one cell at a time so that how the cells share the
	// processors is not part of the difference.
	sweep := func(journal io.Writer) {
		_, err := core.Sweep(w, core.SweepConfig{
			Policies: policy.StudyFactories(), Capacities: []int64{capacity},
			Parallelism: 1, Journal: journal,
		})
		if err != nil {
			cerr = err
		}
	}
	// The cost is a percent or two and the machine's speed drifts by more
	// than that within a second, so each journaled sweep is set against the
	// plain sweep next to it and the median of the pairs' ratios is
	// reported.
	var (
		ratios []float64
		total  time.Duration
	)
	for len(ratios) < minReps || total < 8*b.atLeast {
		plain := b.rec.timed("core.sweep_plain", func() { sweep(nil) })
		journaled := b.rec.timed("core.sweep_journaled", func() { sweep(io.Discard) })
		ratios = append(ratios, float64(journaled)/float64(plain))
		total += plain + journaled
	}
	if cerr != nil {
		return cerr
	}
	rep.set("core.journal_overhead_pct", 100*(median(ratios)-1))
	return nil
}

// tracedPipelines writes the workload's stream out as a gzip Squid log and
// runs the offline pipeline over it, a span per phase, until budget has
// passed (three times at least). It reports the medians of the phases,
// applies the offline invariants to the last run and returns it with the
// timings of the whole pipeline: on sweep_offline, its end-to-end ones.
func tracedPipelines(rep *runReport, rec *recorder, in *input, o options, budget time.Duration) (*pipelineRun, timings, error) {
	path := filepath.Join(o.outDir, "stream.log.gz")
	if err := writeTrace(path, in.reqs); err != nil {
		return nil, timings{}, err
	}
	var (
		last                               *pipelineRun
		ingestPerS, sweepPerS, eff, render []float64
		wall                               []float64
		ps                                 passStats
	)
	for begin := time.Now(); len(wall) < minPasses || time.Since(begin) < budget; {
		p, err := runPipeline(path, rec)
		if err != nil {
			return nil, timings{}, err
		}
		if last != nil && (p.hitsTotal != last.hitsTotal || p.evictionsTotal != last.evictionsTotal) {
			rep.fail("sweep counts do not repeat: %d hits/%d evictions, then %d/%d", last.hitsTotal, last.evictionsTotal, p.hitsTotal, p.evictionsTotal)
		}
		last = p
		ingestPerS = append(ingestPerS, float64(p.w.NumRequests())/p.ingest.Seconds())
		sweepPerS = append(sweepPerS, p.events()/p.sweep.Seconds())
		eff = append(eff, p.busyMs/(float64(p.sweep.Nanoseconds())/1e6*float64(runtime.GOMAXPROCS(0))))
		render = append(render, float64(p.render.Nanoseconds())/1e6)
		wall = append(wall, p.wall.Seconds())
		ps.addPipeline(p)
	}
	if _, err := checkPipeline(rep, last, path); err != nil {
		return nil, timings{}, err
	}
	rep.set("trace.ingest_events_per_s", median(ingestPerS))
	rep.set("core.sweep_events_per_s", median(sweepPerS))
	rep.set("core.sweep_parallel_eff", median(eff))
	rep.set("core.hits_total", float64(last.hitsTotal))
	rep.set("core.evictions_total", float64(last.evictionsTotal))
	rep.set("report.render_ms", median(render))
	rep.set("bench.pipeline_s", median(wall))
	return last, ps.medians(), nil
}

// directLayers runs every [direct] measurement on the workload's stream;
// w is the workload the pipeline built from it.
func directLayers(rep *runReport, rec *recorder, in *input, w *core.Workload, cfg layerConfig, o options) error {
	b := bencher{rec: rec, atLeast: o.batch}

	var genErr error
	rep.set("synth.gen_ns_per_req", b.run("synth.generate", func() int {
		if _, err := generate(in.seed, len(in.reqs)); err != nil {
			genErr = err
		}
		return len(in.reqs)
	}))
	if genErr != nil {
		return genErr
	}
	if err := directProxy(rep, b, in, cfg); err != nil {
		return err
	}
	if err := directCache(rep, b, in, cfg); err != nil {
		return err
	}
	directPolicy(rep, b, in, cfg.capacity)
	if err := directAdmission(rep, b, in, cfg.capacity); err != nil {
		return err
	}
	if err := directSmall(rep, b, in); err != nil {
		return err
	}
	if err := directTrace(rep, b, in, w, o.outDir); err != nil {
		return err
	}
	return directCore(rep, b, in, w)
}
