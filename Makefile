# Developer entry points. `make check` is the tier-1 gate plus static
# analysis and the race detector; CI and pre-commit should run it. The
# race run matters here: the parallel APSP build fans Dijkstra sources
# across goroutines writing disjoint row ranges, and -race proves the
# ranges really are disjoint on every topology the tests touch.

GO ?= go

.PHONY: check vet fmt build test race bench bench-smoke bench-solver bench-kernels bench-apsp-delta bench-apsp-weight bench-sfcroute bench-daemon bench-daemon-full bench-wal bench-wal-full bench-e2e-smoke bench-compare crash-smoke fuzz fuzz-list chaos-smoke

check: vet fmt build race bench-smoke bench-solver bench-apsp-delta bench-apsp-weight bench-sfcroute bench-daemon bench-wal bench-e2e-smoke chaos-smoke crash-smoke fuzz-list

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean (gofmt -l prints offenders).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One-iteration engine benchmark: proves the hot loop (and its nil- vs
# live-observer variants) still compiles and runs, without bench noise.
bench-smoke:
	$(GO) test -run NONE -bench BenchmarkEngine -benchtime 1x ./internal/engine/

# One-iteration smoke of the branch-and-bound solver benchmarks and the
# kernel microbench (results/BENCH_solver.json records the full numbers).
bench-solver:
	$(GO) test -run NONE -bench BenchmarkSolver -benchtime 1x -benchmem .
	$(GO) test -run NONE -bench BenchmarkKernelSequential -benchtime 1x -benchmem ./internal/bnb/

# Bitwise assert plus one-iteration smoke of the incremental fault-event
# APSP path against the full rebuild: every event class (link, switch,
# rack, the worst-case picks, and the heals — switch_back among them)
# must produce a view identical to Rebuild before the bench-harness runs
# once over the -short topologies (results/BENCH_apsp.json records the
# full numbers).
bench-apsp-delta:
	$(GO) test -run TestFaultEventIncrementalMatchesRebuild -bench 'BenchmarkFaultEvent|BenchmarkFaultHeal' -benchtime 1x -short ./internal/fault/

# Bitwise assert plus one-iteration smoke of the weight-delta APSP path
# (degrade faults / link re-pricing) against the full rebuild: every
# weight event must produce a view identical to Rebuild through a
# degrade -> re-price -> heal chain before the bench harness runs once
# over the -short topologies (results/BENCH_apsp.json records the full
# numbers under "weight_events", including the k=32 fat tree and the
# 10k-switch jellyfish from the non-short run).
bench-apsp-weight:
	$(GO) test -run TestWeightEventIncrementalMatchesRebuild -bench BenchmarkWeightEvent -benchtime 1x -short ./internal/fault/

# Differential asserts plus one-iteration smoke of the layered SFC
# routing subsystem: the layered shortest path must reproduce the
# metric-closure chain cost, and the batched route pass (AdmitAll, one
# search per distinct source) must equal the per-flow Admit loop bit for
# bit, before the build/route/admission/route-pass benches run once
# (results/BENCH_sfcroute.json records the full numbers).
bench-sfcroute:
	$(GO) test -run 'TestDifferentialMetricClosure|TestAdmitAllMatchesPerFlowAdmit' -bench 'BenchmarkLayered|BenchmarkAdmitSaturated|BenchmarkRoutePass' -benchtime 1x ./internal/sfcroute/

# Control-plane load smoke: internal/loadgen drives the sharded daemon
# over HTTP (create fleet, per-call ingest, bulk NDJSON ingest, snapshot
# reads) and asserts every phase moved and bulk beat per-call. The full
# form scales to 1000+ concurrent scenarios and enforces the >= 10x
# bulk-over-per-call acceptance bar, writing results/BENCH_daemon.json.
bench-daemon:
	$(GO) test -run TestBenchDaemon -v ./cmd/vnfoptd/

bench-daemon-full:
	VNFOPT_BENCH_FULL=1 VNFOPT_BENCH_OUT=$(CURDIR)/results/BENCH_daemon.json \
		$(GO) test -run TestBenchDaemon -v -timeout 20m ./cmd/vnfoptd/

# WAL overhead + crash/restart smoke: the loadgen workload against a
# no-WAL baseline and both fsync policies, with a hard filesystem kill
# and recovery in every WAL arm (acked updates must all survive under
# `always`). The full form enforces the <= 20% group-commit overhead
# bar and writes results/BENCH_wal.json.
bench-wal:
	$(GO) test -run TestBenchWAL -v ./cmd/vnfoptd/

bench-wal-full:
	VNFOPT_BENCH_FULL=1 VNFOPT_BENCH_OUT=$(CURDIR)/results/BENCH_wal.json \
		$(GO) test -run TestBenchWAL -v -timeout 20m ./cmd/vnfoptd/

# The reaction-time benchmark (bench/, the one BENCHMARK.json runs) is a
# module of its own, so `go test ./...` neither compiles nor runs it: a
# change to cmd/vnfoptd or internal/* can break it unnoticed. Vet it and
# run its tests — a short pass of every workload against the real daemon,
# oracle included (~10 s) — against this checkout. -count=1 because the
# test builds cmd/vnfoptd in a subprocess, which the test cache cannot
# see change.
bench-e2e-smoke:
	$(GO) -C bench vet .
	$(GO) -C bench test -count=1 .

# Diff two result files of the reaction-time benchmark against the bounds
# in BENCHMARK.json: one row per (workload, metric), ok / worse /
# unresolved; non-zero exit on `worse` or a failed run.
#
#	make bench-compare A=parent.json B=change.json
#
# To compare two commits, check each out into its own directory (the
# benchmark builds what it runs from its checkout) and run ten
# alternating pairs, so drift on the host hits both sides alike:
#
#	for i in 1 2 3 4 5 6 7 8 9 10; do
#	  if [ $$((i % 2)) = 1 ]; then first=parent second=change; else first=change second=parent; fi
#	  (cd $$first  && bash bench/run.sh -out $$PWD/../$$first.$$i.json)
#	  (cd $$second && bash bench/run.sh -out $$PWD/../$$second.$$i.json)
#	  make bench-compare A=parent.$$i.json B=change.$$i.json
#	done
#
# A gain is claimed only when the change wins at least nine of the ten
# pairs and the medians differ by more than the parent's own quartile
# spread; `-runs 10` on one side measures that spread.
bench-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-compare A=<result.json> B=<result.json>"; exit 2; }
	bash bench/run.sh -compare $(A) $(B)

# Crash-injection matrix under the race detector: kill the filesystem
# at every I/O boundary of a live workload — checkpoints, delete and
# re-create included, then a first boot importing an older build's state
# file — in both clean and torn-write flavors, and demand bit-identical
# recovery; plus the replay-abort, checkpoint-race, delete-then-kill and
# legacy-log invariants.
crash-smoke:
	$(GO) test -race -run 'TestCrashInjectionBitIdentical|TestRecoveryCancelLeavesLogIntact|TestSnapshotCompactionRacesIngest|TestCheckpointedReplayEqualsLive|TestCheckpointWaitsForEpochBoundary|TestWALDeleteAtomicity|TestSeedCrashThenReboot|TestLegacyImportSkipsLoggedAndRefusesLost|TestDeleteThenKillStaysDeleted|TestDeleteRecreateThenKillServesSuccessor|TestLegacyAnchorRecordSkipped|TestLogWithoutCreateRefused|TestDeleteCommittedNoResurrect|TestDeletingSuffixIDIsSafe|TestDeleteWALRetireFailure' ./cmd/vnfoptd/
	$(GO) test -race ./internal/wal/ ./internal/failfs/

# Seeded chaos run under the race detector: a deterministic fault
# schedule (inject + heal) driven through the online engine next to a
# fault-free reference, checking the resilience invariants every epoch
# (docs/RESILIENCE.md). Seeded, so a failure reproduces exactly.
chaos-smoke:
	$(GO) test -race -run 'TestChaosSeededSchedule|TestChaosDeterminism' ./internal/chaos/

# Full figure/ablation benchmark sweep (minutes).
bench:
	$(GO) test -bench . -benchmem ./...

# Just the performance-kernel benchmarks behind results/BENCH_apsp.json
# and results/BENCH_solver.json.
bench-kernels:
	$(GO) test -bench 'BenchmarkAllPairs|BenchmarkDijkstra' -benchmem -run xxx ./internal/graph/
	$(GO) test -bench 'BenchmarkAPSPFatTree|BenchmarkCommCostAggregated' -benchmem -run xxx .
	$(GO) test -bench BenchmarkKernel -benchmem -run xxx ./internal/bnb/

# Short fuzz pass over the solver-invariant web, the cost-kernel
# equivalence property, the bitwise APSP gates, DP-Stroll against the
# exhaustive stroll and the daemon's hostile-log-record replay. This is
# the only list of fuzz targets (fuzz-list holds it to that): CI runs it
# with a shorter per-target budget (make fuzz FUZZTIME=10s).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzCostCacheEquivalence -fuzztime $(FUZZTIME) -run xxx ./internal/differential/
	$(GO) test -fuzz FuzzDifferential -fuzztime $(FUZZTIME) -run xxx ./internal/differential/
	$(GO) test -fuzz FuzzFaultHealRoundTrip -fuzztime $(FUZZTIME) -run xxx ./internal/fault/
	$(GO) test -fuzz FuzzIncrementalAPSP -fuzztime $(FUZZTIME) -run xxx ./internal/fault/
	$(GO) test -fuzz FuzzWeightDeltaAPSP -fuzztime $(FUZZTIME) -run xxx ./internal/fault/
	$(GO) test -fuzz FuzzRepairRows -fuzztime $(FUZZTIME) -run xxx ./internal/graph/
	$(GO) test -fuzz FuzzMinCostFlow -fuzztime $(FUZZTIME) -run xxx ./internal/mcf/
	$(GO) test -fuzz FuzzDPAgainstExhaustive -fuzztime $(FUZZTIME) -run xxx ./internal/stroll/
	$(GO) test -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) -run xxx ./internal/wal/
	$(GO) test -fuzz FuzzDecodeCommand -fuzztime $(FUZZTIME) -run xxx ./cmd/vnfoptd/

# A fuzz target that is not on the recipe above is one CI never runs:
# fail when the repository (bench/ is its own module) declares one the
# recipe does not name.
fuzz-list:
	@listed="$$($(MAKE) -s -n fuzz | grep -o -- '-fuzz Fuzz[A-Za-z0-9_]*' | cut -d' ' -f2)"; \
	for f in $$(grep -rh '^func Fuzz' --include='*_test.go' --exclude-dir=bench . | sed 's/^func \([A-Za-z0-9_]*\).*/\1/'); do \
		echo "$$listed" | grep -qx "$$f" || { echo "fuzz target $$f is not in 'make fuzz'"; bad=1; }; \
	done; test -z "$$bad"
