GO ?= go
FUZZTIME ?= 10s
COVERPROFILE ?= cover.out
BENCHCOUNT ?= 5
BENCHOUT ?= bench.out
BENCHREPORT ?= bench_report.txt
PROFILEDIR ?= profiles

.PHONY: build test race vet perfbench bench check cover invariants fuzz-smoke \
	lint bench-run bench-gate bench-baseline smoke smoke-chaos \
	smoke-capacity smoke-cluster profile

build:
	$(GO) build ./...

# -shuffle=on randomizes test and subtest order so hidden inter-test
# dependencies fail loudly; the seed is printed on failure for replay
# with -shuffle=<seed>.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Run every fuzz target briefly — a smoke net over the decoder, the image
# walker, the wire formats, the RNG's jump-ahead, the event kernel's
# dispatch order, the configuration validator, the simulate and
# experiment request validators, the hand-written simulate reply
# envelope and the workload-trace loader (Go runs one fuzz target per
# invocation, hence the loops).
fuzz-smoke:
	@for t in FuzzFindSection FuzzViewSection FuzzRelocate FuzzSectionsInPage FuzzValidate; do \
		echo "== $$t"; \
		$(GO) test ./internal/directgraph/ -run=NONE -fuzz=$$t -fuzztime=$(FUZZTIME) || exit 1; \
	done
	@for t in FuzzUnmarshalResult FuzzUnmarshalCommand; do \
		echo "== $$t"; \
		$(GO) test ./internal/sampler/ -run=NONE -fuzz=$$t -fuzztime=$(FUZZTIME) || exit 1; \
	done
	@echo "== FuzzJump"
	@$(GO) test ./internal/xrand/ -run=NONE -fuzz=FuzzJump -fuzztime=$(FUZZTIME)
	@echo "== FuzzKernelOrder"
	@$(GO) test ./internal/sim/ -run=NONE -fuzz=FuzzKernelOrder -fuzztime=$(FUZZTIME)
	@echo "== FuzzConfigValidate"
	@$(GO) test ./internal/config/ -run=NONE -fuzz=FuzzConfigValidate -fuzztime=$(FUZZTIME)
	@for t in FuzzSimRequest FuzzExpRequest FuzzSimEnvelope; do \
		echo "== $$t"; \
		$(GO) test ./internal/serve/ -run=NONE -fuzz=$$t -fuzztime=$(FUZZTIME) || exit 1; \
	done
	@echo "== FuzzTraceLoad"
	@$(GO) test ./internal/trace/ -run=NONE -fuzz=FuzzTraceLoad -fuzztime=$(FUZZTIME)

cover:
	$(GO) test -coverprofile=$(COVERPROFILE) ./...
	$(GO) tool cover -func=$(COVERPROFILE) | tail -1

# Run the full quick evaluation under the invariant checker
# (internal/invariant): every simulation must satisfy the conservation
# and sanity laws or the run fails naming the broken invariant. The
# scheduling-policy and reliability studies sit outside -exp all, so
# they run checked too: the non-FIFO policies and the fault model take
# code paths the figures do not.
invariants:
	$(GO) run ./cmd/beaconbench -exp all -quick -check -parallel 0 > /dev/null
	$(GO) run ./cmd/beaconbench -exp sched -quick -check -parallel 0 > /dev/null
	$(GO) run ./cmd/beaconbench -exp reliab -quick -check -parallel 0 > /dev/null
	@echo "invariants: all checks passed"

# Static analysis. go vet always runs; staticcheck and govulncheck run
# only when present on PATH (CI installs them; local machines without
# them still get a useful, non-failing lint pass).
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "== staticcheck"; staticcheck ./... || exit 1; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "== govulncheck"; govulncheck ./... || exit 1; \
	else \
		echo "lint: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Record the gated benchmarks (medians over BENCHCOUNT runs) into
# $(BENCHOUT). The gated set lives in BENCH_BASELINE.json; RunAllParallel
# uses -benchtime=1x because one iteration already runs every experiment.
bench-run:
	$(GO) test -run='^$$' -bench='BenchmarkEventKernel|BenchmarkKernelDeep|BenchmarkServer$$|BenchmarkServerSched|BenchmarkServerTraced' \
		-benchmem -benchtime=0.5s -count=$(BENCHCOUNT) ./internal/sim/ | tee $(BENCHOUT)
	$(GO) test -run='^$$' -bench='BenchmarkRequestPath' \
		-benchmem -benchtime=0.5s -count=$(BENCHCOUNT) ./internal/serve/ | tee -a $(BENCHOUT)
	$(GO) test -run='^$$' -bench='BenchmarkCapacityStep' \
		-benchmem -benchtime=0.5s -count=$(BENCHCOUNT) ./internal/loadgen/ | tee -a $(BENCHOUT)
	$(GO) test -run='^$$' -bench='BenchmarkClusterStep|BenchmarkCoordinator' \
		-benchmem -benchtime=0.5s -count=$(BENCHCOUNT) ./internal/cluster/ | tee -a $(BENCHOUT)
	$(GO) test -run='^$$' -bench='BenchmarkMaterialize' \
		-benchmem -benchtime=0.5s -count=$(BENCHCOUNT) ./internal/dataset/ | tee -a $(BENCHOUT)
	$(GO) test -run='^$$' -bench='BenchmarkEventLoop' \
		-benchmem -benchtime=0.5s -count=$(BENCHCOUNT) ./internal/platform/ | tee -a $(BENCHOUT)
	$(GO) test -run='^$$' -bench='BenchmarkDirectGraphBuild' \
		-benchmem -benchtime=0.5s -count=$(BENCHCOUNT) . | tee -a $(BENCHOUT)
	$(GO) test -run='^$$' -bench='BenchmarkRunAllParallel' \
		-benchmem -benchtime=1x -count=$(BENCHCOUNT) . | tee -a $(BENCHOUT)

# Benchmark-regression gate: fail if median ns/op or allocs/op regresses
# past the tolerances documented in BENCH_BASELINE.json. Also writes
# $(BENCHREPORT): the gate table, the explicit tracing-overhead delta
# (BenchmarkServerTraced vs BenchmarkServer), and a benchstat-style
# old-vs-new comparison against the checked-in baseline — CI uploads it
# as a workflow artifact.
bench-gate: bench-run
	$(GO) run ./cmd/benchgate -baseline BENCH_BASELINE.json -report $(BENCHREPORT) $(BENCHOUT)

# Re-record the baseline after an intentional perf change; commit the
# resulting BENCH_BASELINE.json in the same PR.
bench-baseline: bench-run
	$(GO) run ./cmd/benchgate -baseline BENCH_BASELINE.json -update $(BENCHOUT)

# CPU and allocation profiles of the load-bearing benchmarks: the
# service-center hot path (BenchmarkServer), the simulation event loop
# of a cold request (BenchmarkEventLoop) and the full evaluation
# (BenchmarkRunAllParallel). Inspect with:
#   go tool pprof -top $(PROFILEDIR)/server.cpu.pprof
#   go tool pprof -top $(PROFILEDIR)/eventloop.cpu.pprof
#   go tool pprof -top -sample_index=alloc_objects $(PROFILEDIR)/runall.alloc.pprof
profile:
	mkdir -p $(PROFILEDIR)
	$(GO) test -run='^$$' -bench='BenchmarkServer$$' -benchmem -benchtime=2s \
		-cpuprofile=$(PROFILEDIR)/server.cpu.pprof \
		-memprofile=$(PROFILEDIR)/server.alloc.pprof \
		-o $(PROFILEDIR)/sim.test ./internal/sim/
	$(GO) test -run='^$$' -bench='BenchmarkEventLoop' -benchmem -benchtime=2s \
		-cpuprofile=$(PROFILEDIR)/eventloop.cpu.pprof \
		-memprofile=$(PROFILEDIR)/eventloop.alloc.pprof \
		-o $(PROFILEDIR)/platform.test ./internal/platform/
	$(GO) test -run='^$$' -bench='BenchmarkRunAllParallel' -benchmem -benchtime=1x \
		-cpuprofile=$(PROFILEDIR)/runall.cpu.pprof \
		-memprofile=$(PROFILEDIR)/runall.alloc.pprof \
		-o $(PROFILEDIR)/beacongnn.test .
	@echo "profiles written to $(PROFILEDIR)/ (test binaries kept alongside for symbolization)"

# End-to-end beaconserved smoke: build, start, exercise the HTTP API,
# SIGTERM, assert a clean drain. See ci/smoke_beaconserved.sh.
smoke:
	./ci/smoke_beaconserved.sh

# Chaos/resilience smoke: armed fault injection against a live daemon
# must serve degraded 200s (never 5xx) while the breaker is open, and
# the -exp chaos sweep must be byte-identical across -parallel widths.
smoke-chaos:
	./ci/smoke_chaos.sh

# Capacity smoke: the virtual -exp capacity sweep must be byte-identical
# across -parallel widths and carry knees in its JSON; a live daemon
# with -capacity-qps must shed the open-loop driver's excess load with
# 429s (never hard failures) and drain cleanly.
smoke-capacity:
	./ci/smoke_capacity.sh

# Cluster smoke: the -exp cluster scatter-gather sweep must be
# byte-identical across -parallel widths; a live `beaconserved -cluster 3`
# must spread requests over >=2 replicas, ride out a killed replica via
# breaker-guarded consistent-hash failover, restore placement on
# recovery, and drain cleanly.
smoke-cluster:
	./ci/smoke_cluster.sh

# perfbench is a nested module, so the root ./... skips it; build and vet
# it here so a change that breaks its imports fails before the benchmark
# runs. -o /dev/null keeps the binary out of the source tree.
perfbench:
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

# Tier-1 verification: everything CI gates on.
check: build vet perfbench test race invariants
