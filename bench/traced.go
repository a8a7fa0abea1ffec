package main

import (
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
)

// openLoopTime is how long the open-loop diagnostic offers its fixed
// rate.
const openLoopTime = 1500 * time.Millisecond

var outcomeNames = [...]string{outMiss: "miss", outHit: "hit", outPeerHit: "peer_hit", outFailed: "failed"}

// passSpans turns a traced pass into spans — one per client request, and
// one child per origin service, matched to the request that caused it by
// document and interval — and returns each miss's self time in
// microseconds: its span minus what the origin child covers.
func passSpans(rec *recorder, st *stack, p *pass) (missSelfUs []float64) {
	base := rec.since(p.start)
	spans := make([]span, len(p.lat))
	for i := range spans {
		start := base + p.sent[i]
		spans[i] = span{Name: "client." + outcomeNames[p.out[i]], Req: reqSelf, Start: start, End: start + p.lat[i]}
	}
	first := rec.add(spans...)

	// Requests per document in send order; an origin service belongs to
	// the earliest request for its document whose interval contains it
	// (a coalesced follower's interval contains it too, but the leader
	// sent first).
	byDoc := make(map[int32][]int32)
	for i, id := range st.in.list[:len(spans)] {
		byDoc[id] = append(byDoc[id], int32(i))
	}
	for _, is := range byDoc {
		sort.Slice(is, func(a, b int) bool { return spans[is[a]].Start < spans[is[b]].Start })
	}
	children := make(map[int32][]span)
	var originSpans []span
	for _, os := range st.origin.takeSpans() {
		for _, i := range byDoc[os.doc] {
			if spans[i].Start <= os.start && os.end <= spans[i].End {
				id := first + int64(i)
				c := span{Name: "origin.serve", Parent: id, Req: id, Start: os.start, End: os.end}
				children[i] = append(children[i], c)
				originSpans = append(originSpans, c)
				break
			}
		}
	}
	rec.add(originSpans...)
	for i, cs := range children {
		if p.out[i] == outMiss {
			missSelfUs = append(missSelfUs, float64(selfTime(spans[i], cs))/1e3)
		}
	}
	sort.Float64s(missSelfUs)
	return missSelfUs
}

// poissonSchedule draws n arrival times, in nanoseconds from the start,
// of a Poisson process of the given rate.
func poissonSchedule(seed int64, rate float64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	due := make([]int64, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate * 1e9
		due[i] = int64(t)
	}
	return due
}

// nullServerCost runs the load generator against a handler that answers
// every request with one fixed body, and returns the process CPU per
// request in microseconds: what client, net/http and the kernel cost
// with nothing behind them.
func nullServerCost(requests int) (float64, error) {
	ln, err := listen(nullHandler())
	if err != nil {
		return 0, err
	}
	in := &input{
		docs: []doc{{path: "/null", ctype: "image/gif", class: doctype.Image, size: nullBodyLen}},
		list: make([]int32, requests),
	}
	g, err := newGenerator(in, []string{ln.addr()})
	if err != nil {
		_ = ln.close() // the dial error is the one worth reporting
		return 0, err
	}
	g.closedLoop() // warm connections and the server's goroutines
	p := g.closedLoop()
	g.close()
	if err := ln.close(); err != nil {
		return 0, err
	}
	return float64(p.cpu.Microseconds()) / float64(p.requests-p.failed), nil
}

// usPercentile is percentile over latencies in milliseconds, answered in
// microseconds.
func usPercentile(sortedMs []float64, p float64) float64 { return percentile(sortedMs, p) * 1e3 }

// traceServing is the traced run of a serving workload. It boots once
// with span recording on through the fill pass, settles, then alternates
// untraced and traced passes for part of the measuring time (their
// difference is the tracing overhead), runs the open-loop diagnostic and
// the null-server calibration, closes the books, and spends the rest on
// the [direct] layer runs. Every per-layer metric comes from here;
// spans.jsonl is written at the end.
func traceServing(name string, o options) (*result, string, error) {
	spec := servingSpecs[name]
	rep := newReport(perLayer)
	rec := newRecorder()

	st, fill, _, err := freshStack(spec, o.seed, o.requests, rec)
	if err != nil {
		return nil, "", err
	}
	o.logf("input_digest %s seed %d: %d requests, %d documents", st.in.digest, o.seed, len(st.in.list), len(st.in.docs))
	missSelf := passSpans(rec, st, fill)
	fillFetches := st.origin.fetches.Load()
	missLat := fill.latencies(func(out uint8) bool { return out == outMiss })

	st.setTracing(false)
	st.replay() // settling pass
	var (
		overhead         []float64 // per pair: 1 - traced req/s over untraced req/s
		hitLat, peerLat  []float64
		untraced         passStats
		measured, inSpan tally
	)
	for begin := time.Now(); len(overhead) < 2 || time.Since(begin) < o.measure*2/5; {
		p := st.replay()
		untraced.add(p)
		plain := untraced.reqPerS[len(untraced.reqPerS)-1]
		measured.add(&p.tally)

		st.setTracing(true)
		p = st.replay()
		st.setTracing(false)
		// Each traced pass is set against the untraced pass before it: the
		// machine's speed drifts by more between pairs than tracing costs.
		overhead = append(overhead, 1-float64(p.requests-p.failed)/p.wall.Seconds()/plain)
		measured.add(&p.tally)
		inSpan.add(&p.tally)
		missSelf = append(missSelf, passSpans(rec, st, p)...)
		hitLat = append(hitLat, p.latencies(func(out uint8) bool { return out == outHit })...)
		peerLat = append(peerLat, p.latencies(func(out uint8) bool { return out == outPeerHit })...)
		missLat = append(missLat, p.latencies(func(out uint8) bool { return out == outMiss })...)
	}
	for _, s := range [][]float64{hitLat, peerLat, missLat, missSelf} {
		sort.Float64s(s)
	}

	// Open-loop diagnostic: a fixed absolute rate, latency from the due
	// time. Not a gate; see README.md, "Known limits".
	n := min(len(st.in.list), int(spec.openRate*openLoopTime.Seconds()))
	open := st.gen.openLoop(poissonSchedule(o.seed, spec.openRate, n))
	st.seen.add(&open.tally)
	openLat := open.latencies(nil)
	late := durationsMs(open.late)

	if err := st.close(); err != nil {
		return nil, "", err
	}
	lg, err := st.reconcile(rep)
	if err != nil {
		return nil, "", err
	}
	nullUs, err := nullServerCost(o.requests)
	if err != nil {
		return nil, "", err
	}

	// What the untraced run logs without gating, from this run's untraced
	// passes.
	cpuUs := untraced.medians().setE2E(rep)
	rep.set("proxy.hit_us_p50", usPercentile(hitLat, 50))
	rep.set("proxy.hit_us_p99", usPercentile(hitLat, 99))
	rep.set("proxy.miss_us_p50", usPercentile(missLat, 50))
	rep.set("proxy.miss_self_us_p50", percentile(missSelf, 50))
	rep.set("proxy.origin_fetches", lg.originFetches)
	rep.set("proxy.coalesced_share", lg.coalesced/max(lg.misses, 1))
	rep.set("proxy.evictions", lg.evictions)
	rep.set("proxy.uncacheable", lg.uncacheable)
	rep.set("proxy.stale_served", lg.stale)
	rep.set("admission.admit_ratio", lg.admitted/max(lg.admitted+lg.admRejected, 1))
	rep.set("admission.ghost_hit_share", lg.ghostHits/max(lg.admitted, 1))
	rep.set("pool.reuse_ratio", 1-lg.poolNews/max(lg.poolAcquires, 1))
	rep.set("pool.bypass_share", lg.poolBypass/max(lg.poolAcquires+lg.poolBypass, 1))
	rep.set("pool.outstanding_end", lg.poolOutstanding-lg.residentObjectCount)
	rep.set("cluster.peer_hit_us_p50", usPercentile(peerLat, 50))
	if len(peerLat) > 0 && len(hitLat) > 0 {
		rep.set("cluster.peer_hop_us", usPercentile(peerLat, 50)-usPercentile(hitLat, 50))
	} else {
		rep.absent("cluster.peer_hop_us")
	}
	rep.set("cluster.peer_hit_share", ratio(inSpan.peerHits, inSpan.requests-inSpan.failed))
	rep.set("cluster.origin_fetches_per_doc", float64(fillFetches)/float64(len(st.in.docs)))
	rep.set("cluster.peer_fetches", lg.peerFetches)
	rep.set("cluster.peer_errors", lg.peerErrors)
	for i, cl := range doctype.Classes {
		c := measured.byClass[cl]
		rep.set("doctype."+classNames[i]+".hit_rate", ratio(c.hits, c.requests))
		rep.set("doctype."+classNames[i]+".byte_hit_rate", ratio(c.hitBytes, c.bytes))
	}
	rep.set("bench.null_server_us_per_req", nullUs)
	rep.set("bench.client_cpu_share", nullUs/cpuUs)
	rep.set("bench.trace_overhead_pct", 100*median(overhead))
	rep.set("bench.open_p50_ms", percentile(openLat, 50))
	rep.set("bench.open_p99_ms", percentile(openLat, 99))
	rep.set("bench.open_backlog_max", float64(open.backlogMax))
	rep.set("bench.gen_late_p99_ms", percentile(late, 99))

	cfg, err := spec.layerConfig()
	if err != nil {
		return nil, "", err
	}
	p, _, err := tracedPipelines(rep, rec, st.in, o, 0)
	if err != nil {
		return nil, "", err
	}
	if err := directLayers(rep, rec, st.in, p.w, cfg, o); err != nil {
		return nil, "", err
	}
	// Handler time over socket time: the share of a hit that is not the
	// handler.
	if hit := usPercentile(hitLat, 50); hit > 0 {
		rep.set("proxy.socket_share", 1-rep.values["proxy.handler_hit_ns"]/1e3/hit)
	} else {
		rep.absent("proxy.socket_share")
	}
	if err := rec.writeJSONL(filepath.Join(o.outDir, "spans.jsonl")); err != nil {
		return nil, "", err
	}
	o.logf("%d spans in %s; p99s over %d hit and %d miss samples", len(rec.spans), filepath.Join(o.outDir, "spans.jsonl"), len(hitLat), len(missLat))
	return rep.result(st.seen.requests, st.seen.failed), st.in.digest, nil
}

// setE2E reports the end-to-end timings that are recorded but not gated,
// and returns the CPU time per request among them.
func (t timings) setE2E(rep *runReport) (cpuUs float64) {
	rep.set("e2e.lat_p50_ms", t.p50)
	rep.set("e2e.lat_p99_ms", t.p99)
	rep.set("e2e.cpu_us_per_req", t.cpuUs)
	return t.cpuUs
}

// setTracing switches span recording on or off for the passes that
// follow.
func (st *stack) setTracing(on bool) {
	st.origin.tracing.Store(on)
	st.gen.tracing = on
}

// traceOffline is the traced run of sweep_offline: one set-up, the
// pipeline with a span per phase for part of the measuring time, then the
// [direct] layer runs on the raw stream. The serving layers are measured with
// the class cell's configuration; their [e2e] and [scrape] metrics do not
// exist here and are reported as 0.
func traceOffline(o options) (*result, string, error) {
	rep := newReport(perLayer)
	rec := newRecorder()
	in, _, _, err := offlineSetup(o)
	if err != nil {
		return nil, "", err
	}
	o.logf("input_digest %s seed %d: %d requests", in.digest, o.seed, len(in.reqs))
	in.index(in.reqs)
	cfg := layerConfig{
		policy:    policy.StudyFactories()[len(studySchemes)-1],
		admission: policy.NoAdmission(),
		capacity:  max(int64(classCellPct/100.0*float64(in.distinctBytes)), 1),
	}
	p, cells, err := tracedPipelines(rep, rec, in, o, o.measure*2/5)
	if err != nil {
		return nil, "", err
	}
	cells.setE2E(rep)
	if err := directLayers(rep, rec, in, p.w, cfg, o); err != nil {
		return nil, "", err
	}
	if cell := classCell(p); cell != nil {
		for i, cl := range doctype.Classes {
			rep.set("doctype."+classNames[i]+".hit_rate", cell.ByClass[cl].HitRate())
			rep.set("doctype."+classNames[i]+".byte_hit_rate", cell.ByClass[cl].ByteHitRate())
		}
	}
	rep.absent(
		"proxy.hit_us_p50", "proxy.hit_us_p99", "proxy.miss_us_p50", "proxy.miss_self_us_p50", "proxy.socket_share",
		"proxy.origin_fetches", "proxy.coalesced_share", "proxy.evictions", "proxy.uncacheable", "proxy.stale_served",
		"admission.admit_ratio", "admission.ghost_hit_share",
		"pool.reuse_ratio", "pool.bypass_share", "pool.outstanding_end",
		"cluster.peer_hit_us_p50", "cluster.peer_hop_us", "cluster.peer_hit_share", "cluster.origin_fetches_per_doc",
		"cluster.peer_fetches", "cluster.peer_errors",
		"bench.null_server_us_per_req", "bench.client_cpu_share", "bench.trace_overhead_pct",
		"bench.open_p50_ms", "bench.open_p99_ms", "bench.open_backlog_max", "bench.gen_late_p99_ms",
	)
	if err := rec.writeJSONL(filepath.Join(o.outDir, "spans.jsonl")); err != nil {
		return nil, "", err
	}
	attempted := int64(len(p.results))
	failed := int64(0)
	if len(rep.problem) > 0 {
		failed = attempted
	}
	return rep.result(attempted, failed), in.digest, nil
}
