// Command bench is the repository's benchmark: four workloads that drive
// the live proxy over loopback TCP and the offline sweep pipeline from
// outside, a fixed set of end-to-end metrics with regression bounds, and a
// per-layer ledger with spans from a separate traced run. It owns its load
// generator and stub origin and imports from the repository only what is
// under test. See README.md for the catalogue and BENCHMARK.json at the
// repository root for the contract with the driver.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload serve_hot --seed 1 --seconds 22 --trace 0
//	bash bench/run.sh --workload all --seed 1 --trace 1 --out .bench_out --record runs.jsonl
//	bash bench/run.sh --compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when a
// check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options is what a workload run needs from the command line.
type options struct {
	seed    int64
	measure time.Duration
	traced  bool
	outDir  string
	// requests and offlineRequests size the inputs and batch is how long
	// a [direct] measurement repeats; only tests change them.
	requests        int
	offlineRequests int
	batch           time.Duration
	quiet           bool
}

func (o options) logf(format string, args ...any) {
	if !o.quiet {
		fmt.Printf("# "+format+"\n", args...)
	}
}

// record is one run as -record appends it: the result the driver sees
// plus what -compare needs to refuse a comparison across different inputs.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Digest   string `json:"input_digest"`
	Traced   bool   `json:"traced"`
	result
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "workload to run: serve_hot, serve_churn, fleet_peer, sweep_offline or all")
		seed     = fs.Int64("seed", defaultSeed, "input seed: the same seed gives the same requests")
		seconds  = fs.Int("seconds", runSeconds, "measuring time of one run in seconds")
		trace    = fs.Int("trace", 0, "0: untraced run printing the end-to-end metrics; 1: traced run printing the per-layer metrics and writing spans.jsonl")
		outDir   = fs.String("out", ".bench_out", "directory for spans.jsonl and scratch files")
		recordTo = fs.String("record", "", "append each run's result to this JSONL file, for -compare")
		compare  = fs.Bool("compare", false, "compare two -record files given as arguments instead of running")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two record files")
			return 2
		}
		regressed, err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	// The generator runs one connection per processor and the sweep one
	// cell per processor; both follow GOMAXPROCS, which is pinned to the
	// machine rather than inherited.
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := options{
		seed:            *seed,
		measure:         time.Duration(*seconds) * time.Second,
		traced:          *trace == 1,
		outDir:          *outDir,
		requests:        servingRequests,
		offlineRequests: offlineRequests,
		batch:           batchTime,
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	for _, name := range names {
		rec, err := runWorkload(name, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 2
		}
		if err := emit(rec, *recordTo); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload untraced or traced.
func runWorkload(name string, o options) (*record, error) {
	o.logf("workload %s seed %d trace %v", name, o.seed, o.traced)
	o.outDir = filepath.Join(o.outDir, name)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	var (
		res    *result
		digest string
		err    error
	)
	switch {
	case name == "sweep_offline" && o.traced:
		res, digest, err = traceOffline(o)
	case name == "sweep_offline":
		res, digest, err = runOffline(o)
	case o.traced:
		res, digest, err = traceServing(name, o)
	default:
		res, digest, err = runServing(name, o)
	}
	if err != nil {
		return nil, err
	}
	return &record{Workload: name, Seed: o.seed, Digest: digest, Traced: o.traced, result: *res}, nil
}

// emit prints every metric by name with its unit, then the result object
// as the last line, and appends the run to the record file if one is set.
func emit(rec *record, recordTo string) error {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("# input_digest %s seed %d\n", rec.Digest, rec.Seed)
	if recordTo != "" {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(recordTo, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("record: %w", err)
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return fmt.Errorf("record: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("record: %w", err)
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// result closes a report: the run is correct when no check failed and no
// operation did.
func (r *runReport) result(attempted, failed int64) *result {
	m := r.metrics()
	for _, p := range r.problem {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	return &result{Correct: len(r.problem) == 0 && failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: m}
}
