# Single entry point for local development and CI.
#
#   make check   build + fmt + vet + simcheck + test + perfbench-build — what
#                CI gates on
#   make perfbench-build  vet and compile the perfbench module against the
#                current tree, writing nothing into perfbench/
#   make fmt     fail if any Go file of the main module is not gofmt-clean
#   make race    full test suite under the race detector
#   make shuffle test suite with shuffled execution order
#   make fuzz    run both internal/sim fuzz targets, 10 s each
#   make soak    quick chaos-experiment soak run
#   make figures regenerate the full figure output
#   make trace   record + validate a Perfetto trace of the fig8a probe, then
#                render a lock-ownership timeline with biasprobe
#   make parity  prove -jobs 1 and -jobs 4 stdout are byte-identical
#   make bench   run the repo benchmarks and emit $(BENCH_OUT)
#   make simcheck-bench  time the whole-module analysis; fail beyond 60s

GO ?= go
GOFMT ?= gofmt

# Benchmark report file; CI asks for it with `make -s bench-out`.
BENCH_OUT = BENCH_12.json

.PHONY: check build fmt vet simcheck simcheck-bench test perfbench-build race shuffle fuzz soak figures trace parity bench bench-out

check: build fmt vet simcheck test perfbench-build

build:
	$(GO) build ./...

# Formatting gate over the main module; perfbench/ is a separate module
# and .bench_build/ holds its build caches.
fmt:
	@out=$$($(GOFMT) -l $$(find . \( -path ./perfbench -o -path ./.bench_build -o -path ./.git \) -prune -o -name '*.go' -print)); \
	if [ -n "$$out" ]; then echo "gofmt -l: files need formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

simcheck:
	$(GO) run ./cmd/simcheck ./...

# Analysis-latency gate: the interprocedural analyzers (call graph, lock
# order, hot-path allocation) must stay fast enough to sit in make check.
# Budget: 60 seconds for the whole module, binary prebuilt so the gate
# times the analysis, not the compiler.
simcheck-bench:
	$(GO) build -o /tmp/simcheck-bench ./cmd/simcheck
	@start=$$(date +%s); \
	/tmp/simcheck-bench ./... || exit 1; \
	end=$$(date +%s); took=$$((end-start)); \
	echo "simcheck ./... took $${took}s (budget 60s)"; \
	if [ $$took -gt 60 ]; then \
		echo "simcheck-bench: FAIL: whole-module analysis exceeded 60s"; exit 1; \
	fi

test:
	$(GO) test ./...

# perfbench is a separate module that imports the facade; vetting and
# compiling it here makes a facade change that breaks the benchmark fail
# locally and in CI. -o /dev/null keeps the binary out of perfbench/.
perfbench-build:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null ./...

race:
	$(GO) test -race ./...

shuffle:
	$(GO) test -shuffle=on ./...

# Fuzz the event core: the timer wheel against a reference scheduler, and
# the engine's run-ahead Sleep and elided WaitUntil wakes against the plain
# dispatch path. go test accepts one -fuzz target per run.
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzSchedulerMatchesReference$$' -fuzztime 10s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzFastPathsMatchSlowPath$$' -fuzztime 10s

soak:
	$(GO) build -o /tmp/mpistorm ./cmd/mpistorm
	/tmp/mpistorm -quick -experiment chaos

figures:
	$(GO) run ./cmd/mpistorm -experiment all -quick

trace:
	$(GO) run ./cmd/mpitrace -experiment fig8a -quick -check -out artifacts/trace
	$(GO) run ./cmd/biasprobe -lock mutex -windows 2 -timeline

# Serial-equivalence gate: the full quick sweep at -jobs 1 (strictly
# serial path) and -jobs 4 (work-stealing pool) must print identical
# bytes, and so must the crashy recovery experiment, the full-size
# sharded-runtime (vci) experiment, and the full-size progress-mode
# experiment on their own — rank crashes, heartbeat detection, the
# revoke/shrink error path, the per-VCI critical sections, the
# progress daemons/continuation dispatch, and the partitioned channels'
# lock-free readiness bitmaps are simulated state like any other, so the
# same seed must reproduce them bit-for-bit at any worker count. cmp
# exits non-zero on the first differing byte.
parity:
	$(GO) build -o /tmp/mpistorm-parity ./cmd/mpistorm
	/tmp/mpistorm-parity -experiment all -quick -jobs 1 > /tmp/parity-jobs1.txt
	/tmp/mpistorm-parity -experiment all -quick -jobs 4 > /tmp/parity-jobs4.txt
	cmp /tmp/parity-jobs1.txt /tmp/parity-jobs4.txt
	/tmp/mpistorm-parity -experiment recovery -jobs 1 > /tmp/parity-recovery-jobs1.txt
	/tmp/mpistorm-parity -experiment recovery -jobs 4 > /tmp/parity-recovery-jobs4.txt
	cmp /tmp/parity-recovery-jobs1.txt /tmp/parity-recovery-jobs4.txt
	/tmp/mpistorm-parity -experiment vci -jobs 1 > /tmp/parity-vci-jobs1.txt
	/tmp/mpistorm-parity -experiment vci -jobs 4 > /tmp/parity-vci-jobs4.txt
	cmp /tmp/parity-vci-jobs1.txt /tmp/parity-vci-jobs4.txt
	/tmp/mpistorm-parity -experiment progress -jobs 1 > /tmp/parity-progress-jobs1.txt
	/tmp/mpistorm-parity -experiment progress -jobs 4 > /tmp/parity-progress-jobs4.txt
	cmp /tmp/parity-progress-jobs1.txt /tmp/parity-progress-jobs4.txt
	/tmp/mpistorm-parity -experiment partitioned -jobs 1 > /tmp/parity-partitioned-jobs1.txt
	/tmp/mpistorm-parity -experiment partitioned -jobs 4 > /tmp/parity-partitioned-jobs4.txt
	cmp /tmp/parity-partitioned-jobs1.txt /tmp/parity-partitioned-jobs4.txt
	@echo "parity OK: -jobs 1 and -jobs 4 output is byte-identical"

# Benchmark report: one timed pass over the repository benchmarks
# (-benchtime=1x keeps it minutes, and allocs/op is exact either way),
# plus the internal/sim micro-benchmarks on the default time budget (one
# op there is a single switch), parsed into $(BENCH_OUT) by
# cmd/benchjson. CI uploads the file as an artifact so runs can be diffed
# for perf/allocation regressions.
bench:
	{ $(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . ./internal/mpi && \
	  $(GO) test -run '^$$' -bench . -benchmem ./internal/sim; } | $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

bench-out:
	@echo $(BENCH_OUT)
