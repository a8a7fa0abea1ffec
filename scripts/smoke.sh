#!/usr/bin/env bash
# End-to-end smoke checks, one row each — quickstart, journal, admission,
# columnar, gzip, cluster, report, fuzz. Run from the repository root:
#
#	scripts/smoke.sh <name>   one row
#	scripts/smoke.sh all      every row, in table order
#
# CI runs the same rows as a matrix (.github/workflows/ci.yml) and
# `make smoke` runs them all.
set -euo pipefail

# tiny_trace writes the 80 000-request DFN trace every sweep row replays:
# long enough for GD*'s first refit of beta at 50 000 references, so GD*
# is not just GDSF in these rows.
tiny_trace() {
	go run ./cmd/wcgen -profile dfn -requests 80000 -seed 7 -o "$1"
}

# quickstart: the README's first two commands, verbatim — a 100 000-request
# DFN trace swept at 2 % — must print the paper's six configurations,
# with GD*(1) ahead of LRU in hit rate. A third sweep of the same trace
# writes its curves with -svg-dir: both files must be SVG documents.
smoke_quickstart() {
	go run ./cmd/wcgen -profile dfn -requests 100000 -seed 1 -o "$tmp/dfn.wci"
	go run ./cmd/wcsim -trace "$tmp/dfn.wci" -size-pcts 2 | tee "$tmp/out.txt"
	awk '$1 ~ /^(LRU|LFU-DA|GDS\([1P]\)|GD\*\([1P]\))$/ { n++; hr[$1] = $3 }
		END { if (n != 6 || !(hr["GD*(1)"] > hr["LRU"])) { print "quickstart: want six rows and GD*(1) HR above LRU" > "/dev/stderr"; exit 1 } }' "$tmp/out.txt"
	go run ./cmd/wcsim -trace "$tmp/dfn.wci" -size-pcts 1,2,4 -svg-dir "$tmp/figures" > /dev/null
	local f
	for f in "$tmp/figures/overall-01.svg" "$tmp/figures/overall-02.svg"; do
		[[ -f $f && $(head -c 4 "$f") == '<svg' ]] || { echo "quickstart: $f is not an SVG document" >&2; exit 1; }
	done
}

# journal: sweep with a run journal, then summarize it. wcreport -journal
# parses the file with core.ReadJournal and exits non-zero on a malformed
# line, so the JSONL schema stays writable and readable (docs/METRICS.md).
# GD*(P) must have adapted: its row differs from GDSF(P)'s, which is what
# it runs as until its first refit.
smoke_journal() {
	tiny_trace "$tmp/tiny.wct.gz"
	go run ./cmd/wcsim -trace "$tmp/tiny.wct.gz" -policies lru,gdstar:p \
		-size-pcts 1,4 -journal "$tmp/run.jsonl"
	go run ./cmd/wcreport -journal "$tmp/run.jsonl"
	go run ./cmd/wcsim -trace "$tmp/tiny.wct.gz" -policies gdstar:p,gdsf:p -size-pcts 1 | tee "$tmp/adapt.txt"
	awk '$1 == "GD*(P)" { a = $3 " " $4 " " $5 } $1 == "GDSF(P)" { b = $3 " " $4 " " $5 }
		END { if (a == "" || a == b) { print "journal: GD*(P) never adapted, its row equals GDSF(P)" > "/dev/stderr"; exit 1 } }' "$tmp/adapt.txt"
}

# admission: sweep a policy x admission grid and require that the axis
# ran — sweep_start lists the three filters and the filtered run_end
# records carry admission counters (docs/ADMISSION.md).
smoke_admission() {
	tiny_trace "$tmp/tiny.wct.gz"
	go run ./cmd/wcsim -trace "$tmp/tiny.wct.gz" -policies lru,gdsf \
		-admissions none,tinylfu,arc-ghost -size-pcts 1 -journal "$tmp/run.jsonl"
	go run ./cmd/wcreport -journal "$tmp/run.jsonl"
	local want
	for want in '"admissions":\["none","tinylfu","arc-ghost"\]' \
		'"admission":"tinylfu"' '"admission":"arc-ghost"' \
		'"admissionRejects"' '"admitted"'; do
		grep -q "$want" "$tmp/run.jsonl" || { echo "journal lacks $want" >&2; return 1; }
	done
}

# columnar: convert a record trace to the WCT3 columnar image (the .wci3
# extension picks the format), characterize it, replay it memory-mapped,
# and require results byte-identical to the in-RAM record-stream replay;
# only the header line naming the trace file differs (docs/TRACES.md,
# docs/ARCHITECTURE.md).
smoke_columnar() {
	tiny_trace "$tmp/tiny.wci"
	go run ./cmd/wcstat -o "$tmp/tiny.wci3" "$tmp/tiny.wci"
	go run ./cmd/wcstat "$tmp/tiny.wci3"
	go run ./cmd/wcsim -trace "$tmp/tiny.wci" -size-pcts 1,4 -csv | tail -n +2 > "$tmp/ram.csv"
	go run ./cmd/wcsim -trace "$tmp/tiny.wci3" -size-pcts 1,4 -csv | tail -n +2 > "$tmp/mmap.csv"
	diff -u "$tmp/ram.csv" "$tmp/mmap.csv"
}

# gzip: a .gz trace is a run of independently compressed 256 KiB members
# (docs/TRACES.md). A 300 000-request trace written as .log, .log.gz, .wci
# and .wci.gz must pass gzip -t and decompress to the plain file's bytes,
# the .log.gz must be the same bytes at GOMAXPROCS=1 and 4, and wcsim must
# print the same table from .log and .log.gz (the line naming the file
# aside).
smoke_gzip() {
	local f
	for f in x.log x.log.gz x.wci x.wci.gz; do
		go run ./cmd/wcgen -profile dfn -requests 300000 -seed 3 -o "$tmp/$f"
	done
	for f in log wci; do
		gzip -t "$tmp/x.$f.gz"
		gzip -dc "$tmp/x.$f.gz" | cmp - "$tmp/x.$f"
	done
	for f in 1 4; do
		GOMAXPROCS=$f go run ./cmd/wcgen -profile dfn -requests 300000 -seed 3 -o "$tmp/procs$f.log.gz"
	done
	cmp "$tmp/procs1.log.gz" "$tmp/procs4.log.gz"
	for f in x.log x.log.gz; do
		go run ./cmd/wcsim -trace "$tmp/$f" -size-pcts 1,4 | tail -n +2 > "$tmp/$f.txt"
	done
	diff -u "$tmp/x.log.txt" "$tmp/x.log.gz.txt"
}

# cluster: the 3-node in-process fleet under the race detector — one
# origin fetch per unique document fleet-wide, counters reconciled, the
# peer fault paths, and the sim/live parity replay (docs/CLUSTER.md) —
# plus wcproxy's own run: the admin listener, the signal-driven shutdown
# and the statistics line read from the registry, which `make race` does
# not cover.
smoke_cluster() {
	go test -race -run '^(TestCluster|TestRun)' -v ./internal/proxy ./internal/load ./internal/hierarchy ./cmd/wcproxy
}

# report: regenerate the paper reproduction at scale 1 (~25 s) and diff
# it against the committed docs/report-scale1.txt with the per-experiment
# "(N.Ns)" timings stripped, so a count that moves fails CI the way the
# benchmark's sweep_offline digests do (EXPERIMENTS.md quotes this file),
# and the SVG figures the same run writes against docs/figures/.
smoke_report() {
	go run ./cmd/wcreport -scale 1 -extras -svg-dir "$tmp/figures" > "$tmp/report.txt"
	local timing='s/^(==== .*)  \([0-9.]+s\)$/\1/'
	diff -u <(sed -E "$timing" docs/report-scale1.txt) <(sed -E "$timing" "$tmp/report.txt")
	diff -r docs/figures "$tmp/figures"
}

# fuzz: a short budget per package/target — the trace decoders and the
# gzip writer, the proxy's key stage and freshness headers, the /metrics
# reader, the journal reader and the topology file — one at a time (-fuzz
# refuses a pattern matching several); -run pins the seed-corpus phase to
# the target being fuzzed.
smoke_fuzz() {
	local row
	for row in trace/FuzzParseSquidLine trace/FuzzSquidBlocks trace/FuzzInternedReader \
		trace/FuzzColumnar trace/FuzzGzipWriter proxy/FuzzRequestKey proxy/FuzzExpiry \
		metrics/FuzzParseText core/FuzzReadJournal cluster/FuzzParseTopology; do
		go test -run="^${row#*/}\$" -fuzz="^${row#*/}\$" -fuzztime=30s "./internal/${row%/*}"
	done
}

rows="quickstart journal admission columnar gzip cluster report fuzz"

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

run_row() {
	echo "== smoke: $1"
	tmp="$scratch/$1"
	mkdir "$tmp"
	"smoke_$1"
}

if [ "${1:-}" = all ]; then
	for row in $rows; do run_row "$row"; done
elif declare -F "smoke_${1:-}" > /dev/null; then
	run_row "$1"
else
	echo "usage: scripts/smoke.sh <${rows// /|}|all>" >&2
	exit 2
fi
