# Development entry points; everything is plain `go` underneath.

GO ?= go

.PHONY: lint alloc-check snapshot-check race cover bench-ab profile experiments paper examples clean

# The one static gate (cmd/vichar-lint, after go vet): no map ranges
# or ambient entropy in the simulator core, no dropped errors, panics
# only in constructors or at annotated invariants, goroutines only in
# the shard executor, and no allocation on the tick path — every heap
# decision `go build -gcflags='-m -m'` reports in a function reachable
# from Step, plus the five constructs it cannot see — without a
# reasoned //vichar:alloc on the statement (DESIGN.md §9, §13).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/vichar-lint ./...

# The runtime half of the purity contract: Network.Step performs zero
# heap allocations on a drained network and none per packet, flit or
# link send under load (at most 0.01 allocations and 64 bytes per
# cycle), for all four buffer architectures; what network.New holds
# per router stays inside its budget (-v prints the per-component
# account) and it allocates as often on a 16x16 mesh as on a 4x4 one,
# every router, buffer, view and interface drawn from a pool; reducing a run's results is bounded by the latency
# range, not the sample count (Finalize plus Latencies() over 200 000
# recorded latencies allocate under 64 KB); and the traffic generator's
# per-node streams are one slab (traffic.New allocates as often on a
# 16x16 mesh as on a 4x4 one).
alloc-check:
	$(GO) test ./internal/network/ -run 'TestStepAllocFree|TestHeapBytesPerRouterBudget|TestNewAllocsIndependentOfMesh' -count=1 -v
	$(GO) test ./internal/stats/ ./internal/traffic/ -run 'TestFinalizeAllocBudget|TestNewAllocsIndependentOfMesh' -count=1 -v

# The bit-identical resume contract (DESIGN.md §14): snapshot at C,
# restore, run to completion — results, latencies, counters, the final
# metrics registry, flit events and the recorded trace byte-equal to
# the straight-through run for every architecture, across the resume
# matrix (each row fails if no cut carries the state it exists for),
# in-process and across a process boundary, plus the codec's own
# cases, corruption rejection before and behind the checksum
# (TestRestoreResealedMutations) and the mid-hold cut. The state
# walks' own round trips come first: every buffer organization, ViChaR
# included, reloaded mid-sequence against a FIFO model (the free chain
# rebuilt, the slot-pool audit silent), and corrupt queues refused.
# The tracer's two tests guard what a resumed event stream rests on:
# Seqs rebuilt from ring positions, against a model that stores them.
# Every resumed run rests on the random streams' State: the rng tests
# pin the sequence and the loaded, bounded draw count.
snapshot-check:
	$(GO) test ./internal/snap ./internal/rng -count=1
	$(GO) test ./internal/buffers -run 'TestRandomOpsInvariants|TestLoadRejectsCorruptQueues' -count=1
	$(GO) test ./internal/metrics -run 'TestTracerMatchesNaiveRing|TestEventRecordSize' -count=1
	$(GO) test . -run 'TestSnapshot|TestRestore|TestRunCheckpointed' -count=1
	$(GO) test ./internal/network/ -run 'TestSnapshot' -count=1

race:
	$(GO) test -race ./...

# Coverage floor for the simulator proper (commands and examples are
# thin shells and excluded). CI fails if total statement coverage
# drops below COVER_FLOOR.
COVER_FLOOR ?= 75.0
COVER_PKGS = . ./internal/... ./experiments/...

cover:
	$(GO) test -coverprofile=coverage.out $(COVER_PKGS)
	@$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < floor+0) { printf "coverage %.1f%% is below the %.1f%% floor\n", t, floor; exit 1 } \
		printf "coverage %.1f%% meets the %.1f%% floor\n", t, floor }'

# Same-host A/B of the repository benchmark (bench/README.md): check
# REF out beside the working tree, measure a complete result set in
# each, and judge the working tree against REF by the bounds in
# BENCHMARK.json. Fails when any end-to-end metric is `worse`.
bench-ab:
	@test -n "$(REF)" || { echo "usage: make bench-ab REF=<rev>"; exit 2; }
	mkdir -p .bench_build
	-git worktree remove --force .bench_build/ref 2>/dev/null
	git worktree add --detach .bench_build/ref $(REF)
	cd .bench_build/ref && $(GO) run ./bench -out $(CURDIR)/.bench_build/ab-ref.json
	git worktree remove --force .bench_build/ref
	$(GO) run ./bench -out .bench_build/ab-head.json
	$(GO) run ./bench -compare .bench_build/ab-ref.json .bench_build/ab-head.json

# CPU profiles of two single-threaded ViChaR cells of BenchmarkKernel:
# saturated (router VA/SA work dominates) and idle (rate 0.05: most
# routers sleep, and what a cycle touches around them shows), and of
# construction alone (BenchmarkNewSimulator's 16x16 ViC-16 cell and its
# observed 8x8 cell, with the metrics registry and event recorders: the
# cost setup_s measures). Prints the top-10 flat and cumulative
# reports of each. The binary and the raw profiles stay under the
# ignored .bench_build/.
profile:
	mkdir -p .bench_build
	$(GO) test . -run '^$$' -bench 'BenchmarkKernel/ViC/rate=0.40/workers=1$$' \
		-benchtime 20x -cpuprofile .bench_build/kernel.prof -o .bench_build/kernel.test
	$(GO) tool pprof -top -nodecount=10 .bench_build/kernel.test .bench_build/kernel.prof
	$(GO) tool pprof -top -cum -nodecount=10 .bench_build/kernel.test .bench_build/kernel.prof
	$(GO) test . -run '^$$' -bench 'BenchmarkKernel/ViC/rate=0.05/workers=1$$' \
		-benchtime 100x -cpuprofile .bench_build/kernel-idle.prof -o .bench_build/kernel.test
	$(GO) tool pprof -top -nodecount=10 .bench_build/kernel.test .bench_build/kernel-idle.prof
	$(GO) tool pprof -top -cum -nodecount=10 .bench_build/kernel.test .bench_build/kernel-idle.prof
	$(GO) test . -run '^$$' -bench 'BenchmarkNewSimulator/ViC/mesh=16x16$$' \
		-benchtime 400x -cpuprofile .bench_build/new.prof -o .bench_build/kernel.test
	$(GO) tool pprof -top -nodecount=10 .bench_build/kernel.test .bench_build/new.prof
	$(GO) tool pprof -top -cum -nodecount=10 .bench_build/kernel.test .bench_build/new.prof
	$(GO) test . -run '^$$' -bench 'BenchmarkNewSimulator/ViC/mesh=8x8/observed$$' \
		-benchtime 2000x -cpuprofile .bench_build/new-observed.prof -o .bench_build/kernel.test
	$(GO) tool pprof -top -nodecount=10 .bench_build/kernel.test .bench_build/new-observed.prof
	$(GO) tool pprof -top -cum -nodecount=10 .bench_build/kernel.test .bench_build/new-observed.prof

# Regenerate every figure/table at quick scale into results/.
experiments:
	$(GO) run ./cmd/vichar-experiments -all -extras -csv results

# The paper's full 300k-message protocol (slow).
paper:
	$(GO) run ./cmd/vichar-experiments -all -paper -csv results-paper

# Every program under examples/ must build and run to completion.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# Removes untracked outputs only; results/ is checked in.
clean:
	rm -rf results-paper coverage.out .bench_build
