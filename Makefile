# Developer entry points. `make check` is the full local gate and mirrors
# what CI runs (.github/workflows/ci.yml).

GO ?= go

.PHONY: build fmt vet test race bench bench-check smoke lines lines-by-pkg lines-check check

# The second build compiles the !unix side of the build-tagged file pairs
# (trace/mm, the pool's arena), which nothing else does; the third, a
# 32-bit int (the pool's class arithmetic, trace/mm's offsets); the
# fourth, a unix that is not Linux: the mapped arena whose Release keeps
# its pages (arena_keep.go without -race).
build:
	$(GO) build ./...
	GOOS=windows $(GO) build ./...
	GOARCH=386 $(GO) build ./...
	GOOS=darwin $(GO) build ./...

# Fails when any file is not gofmt-clean; `gofmt -l .` names them.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The core tree includes the shared-workload race regression test
# (sweep_race_test.go), which only proves its point under -race; mrc, kept
# only for the benchmark's ledger row, rides along.
# The serving stack (cache, flight, proxy, load) is concurrent by design
# and carries its own regression tests that only bite under -race.
# container, sketch and admission ride along: the heap and the list link
# memory their callers own (policy.Doc, the space-saving entries), one set
# per sweep goroutine or cache shard. pool hands memory between goroutines;
# under -race its chunks are Go heap, so the detector sees every body byte.
# metrics is updated from every serving goroutine; its concurrent-update and
# vec-creation tests only mean something here. trace rides along for the
# WCT3 column views sweep goroutines share; cluster and hierarchy for the
# fleet routing and the offline cluster replay. cmd/wcload's tests run
# an in-process proxy under the live, -sequential, -reconcile and
# -offline paths, which no other package drives. CI's race job runs this
# target, so the list lives here only.
race:
	$(GO) test -race ./internal/core/... ./internal/policy/... ./internal/mrc/... \
		./internal/pool/... ./internal/metrics/... \
		./internal/cache/... ./internal/flight/... ./internal/proxy/... ./internal/load/... \
		./internal/trace/... ./internal/cluster/... ./internal/hierarchy/... \
		./internal/container/... ./internal/sketch/... ./internal/admission/... \
		./cmd/wcload/...

# The repository's benchmark (BENCHMARK.json, bench/README.md): the
# end-to-end metrics of all four workloads, appended to a record file that
# `bash bench/run.sh --compare A.jsonl B.jsonl` judges against another.
bench:
	bash bench/run.sh --workload all --record .bench_out/runs.jsonl

# The benchmark is a Go module of its own (bench/go.mod replaces
# webcachesim with ../), so ./... does not reach it; vet and test it here
# so an internal/ API change cannot break it unnoticed. One pass each of
# BenchmarkGenerate and BenchmarkSweepGrid keeps the micro-benchmarks
# behind synth's and the sweep's cost figures (ROADMAP, "Where the cost
# is") compiling and running, and prints the sweep's B/op; one pass of
# each scheme's Benchmark*Ops does the same for the per-operation cost of
# every replacement scheme (internal/policy).
bench-check:
	$(GO) vet -C bench .
	$(GO) test -C bench ./...
	$(GO) test -run '^$$' -bench Generate -benchtime 1x ./internal/synth
	$(GO) test -run '^$$' -bench SweepGrid -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench 'Ops$$' -benchtime 1x ./internal/policy

# End-to-end smoke rows (quickstart, journal, admission, columnar, gzip,
# cluster, report, fuzz); CI runs the same script one row per matrix job.
smoke:
	bash scripts/smoke.sh all

# The figure ROADMAP item 1 tracks: non-test Go lines outside bench/.
lines:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

# The same figure per directory, largest first: where the lines are, for
# deciding what a simplification can pay with.
lines-by-pkg:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | \
		xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d }' | sort -rn

# The line to hold: fails when the tree outgrows LINES_MAX, so a PR that
# adds net code has to raise the number in its own diff (and one that
# removes code should lower it to the new `make lines`).
LINES_MAX = 14708
lines-check:
	@n=$$($(MAKE) -s lines); test "$$n" -le $(LINES_MAX) || \
		{ echo "make lines = $$n exceeds LINES_MAX = $(LINES_MAX)"; exit 1; }

check: build fmt lines-check vet test bench-check race
