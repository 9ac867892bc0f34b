# Developer entry points. `make check` is the tier-1 gate plus static
# analysis and the race detector; CI and pre-commit should run it. The
# race run matters here: APSP rows are built on first read, in batches
# fanned across goroutines, while other readers read the same matrix, and
# -race proves a row is published only after its cells are written
# (TestConcurrentRowReads: eight goroutines on one shared and one derived
# matrix) on every topology the tests touch.

GO ?= go

.PHONY: check vet fmt build test race bench bench-smoke bench-kernels bench-e2e-smoke bench-compare crash-smoke fuzz fuzz-list run-list chaos-smoke orphans

check: vet fmt build race bench-smoke bench-e2e-smoke chaos-smoke crash-smoke orphans fuzz-list run-list

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean (gofmt -l prints offenders).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# internal/experiments is the figure sweep: under -race it was ~105 s of
# a ~140 s `make check`, and its only concurrency is the per-run fan-out
# through parallel.Map over solvers that every other package's tests
# already run under the detector. It runs without it (~11 s), so `check`
# still covers the figures.
race:
	$(GO) test -race $$($(GO) list ./... | grep -vx vnfopt/internal/experiments)
	$(GO) test ./internal/experiments/

# One iteration of every kernel microbenchmark with numbers on record,
# so the code behind them still compiles and runs; no timing is read.
# In order: the five engine benchmarks — BenchmarkEngineStep and
# BenchmarkEngineStepObserved (the hot loop with a nil and a live
# observer), BenchmarkEngineStepDiurnal, BenchmarkEngineStepFlashCrowd and
# BenchmarkEngineFaultStorm (the in-process diurnal-react,
# flashcrowd-routed and fault-storm scenarios), with B/op, so CI
# logs show what one fault event allocates; the
# branch-and-bound solvers (the hard mesh and the k=8 fat tree) and their
# shared kernel on a tour its own bound prunes loosely
# (BENCH_solver.json); the full APSP build over the k=4/8/16 fat trees
# (BenchmarkAPSPFatTree, run beside the solvers at the root), the
# random-graph builds and single-source Dijkstra (BenchmarkAllPairs*,
# BenchmarkDijkstra*);
# the incremental fault-event and weight-delta APSP paths on the -short
# topologies (all BENCH_apsp.json); SFC stage routing (BENCH_sfcroute.json);
# the daemon's rate-update decode against encoding/json (the table in
# docs/API.md).
# The bitwise and differential asserts these benchmarks lean on
# (Test*IncrementalMatchesRebuild, TestDifferentialMetricClosure,
# TestAdmitAllMatchesPerFlowAdmit, TestDecodeBenchInputsAgree) run under
# `race`. The daemon is not load-tested here: that is bench/
# (bench-e2e-smoke below).
bench-smoke:
	$(GO) test -run NONE -bench BenchmarkEngine -benchtime 1x -benchmem ./internal/engine/
	$(GO) test -run NONE -bench 'BenchmarkSolver|BenchmarkAPSPFatTree' -benchtime 1x -benchmem .
	$(GO) test -run NONE -bench BenchmarkKernelSequential -benchtime 1x -benchmem ./internal/bnb/
	$(GO) test -run NONE -bench 'BenchmarkAllPairs|BenchmarkDijkstra' -benchtime 1x -benchmem ./internal/graph/
	$(GO) test -run NONE -bench 'BenchmarkFaultEvent|BenchmarkFaultHeal|BenchmarkWeightEvent' -benchtime 1x -benchmem -short ./internal/fault/
	$(GO) test -run NONE -bench 'BenchmarkAdmitSaturated|BenchmarkRoutePass' -benchtime 1x ./internal/sfcroute/
	$(GO) test -run NONE -bench BenchmarkDecodeRates -benchtime 1x ./cmd/vnfoptd/

# The reaction-time benchmark (bench/, the one BENCHMARK.json runs) is the
# daemon's load test: the real binary with the WAL on, four workloads, a
# SIGKILL and restart every round, every answer checked against an
# in-process oracle. It is a module of its own, so `go test ./...`
# neither compiles nor runs it: a change to cmd/vnfoptd or internal/* can
# break it unnoticed. Vet it and run its tests — a short pass of every
# workload against the real daemon, oracle included (~10 s) — against
# this checkout. -count=1 because the test builds cmd/vnfoptd in a
# subprocess, which the test cache cannot see change.
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
# legacy-log invariants, and the concurrent boot replay (two logs in
# flight at once; the same state and the same refusal on every boot).
crash-smoke:
	$(GO) test -race -run 'TestCrashInjectionBitIdentical|TestRecoveryCancelLeavesLogIntact|TestSnapshotCompactionRacesIngest|TestCheckpointedReplayEqualsLive|TestCheckpointWaitsForEpochBoundary|TestWALDeleteAtomicity|TestSeedCrashThenReboot|TestLegacyImportSkipsLoggedAndRefusesLost|TestDeleteThenKillStaysDeleted|TestDeleteRecreateThenKillServesSuccessor|TestLegacyAnchorRecordSkipped|TestLogWithoutCreateRefused|TestRetiredMigratorRefusedOnRecovery|TestRefusedCreateWritesNothing|TestDeleteCommittedNoResurrect|TestDeletingSuffixIDIsSafe|TestDeleteWALRetireFailure|TestRecoveryReplaysLogsConcurrently|TestConcurrentRecoveryDeterministic' ./cmd/vnfoptd/
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
# and results/BENCH_solver.json. The fault and weight events run -short
# (the fat trees): B/op is what says a delta copies the cells it changes
# and not the rows they sit in. The branch-and-bound kernel runs a tour
# its own bound prunes loosely (~6k expansions), so the expansion loop,
# not the bound table, is what it times.
bench-kernels:
	$(GO) test -bench 'BenchmarkAllPairs|BenchmarkDijkstra' -benchmem -run xxx ./internal/graph/
	$(GO) test -bench 'BenchmarkFaultEvent|BenchmarkFaultHeal|BenchmarkWeightEvent' -benchmem -short -run xxx ./internal/fault/
	$(GO) test -bench 'BenchmarkAPSPFatTree|BenchmarkCommCostAggregated' -benchmem -run xxx .
	$(GO) test -bench BenchmarkKernel -benchmem -run xxx ./internal/bnb/

# Short fuzz pass over the branch-and-bound kernel against an unpruned
# enumeration under its own replacement rule, the solver-invariant web,
# the cost-kernel equivalence property, the bitwise APSP gates, the
# router's stage routes against per-leg Dijkstra trees, the source leg
# read rootward from p_1's (FuzzStageRoute), DP-Stroll against the
# exhaustive stroll and its lazy table against the full one, the
# daemon's hostile-log-record replay and its rate-update scanner against
# encoding/json. This is the only list of fuzz targets (fuzz-list holds
# it to that): CI runs it with a shorter per-target budget
# (make fuzz FUZZTIME=10s).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzSearchMatchesEnumeration -fuzztime $(FUZZTIME) -run xxx ./internal/bnb/
	$(GO) test -fuzz FuzzCostCacheEquivalence -fuzztime $(FUZZTIME) -run xxx ./internal/differential/
	$(GO) test -fuzz FuzzDifferential -fuzztime $(FUZZTIME) -run xxx ./internal/differential/
	$(GO) test -fuzz FuzzFaultHealRoundTrip -fuzztime $(FUZZTIME) -run xxx ./internal/fault/
	$(GO) test -fuzz FuzzIncrementalAPSP -fuzztime $(FUZZTIME) -run xxx ./internal/fault/
	$(GO) test -fuzz FuzzWeightDeltaAPSP -fuzztime $(FUZZTIME) -run xxx ./internal/fault/
	$(GO) test -fuzz FuzzRepairRows -fuzztime $(FUZZTIME) -run xxx ./internal/graph/
	$(GO) test -fuzz FuzzMinCostFlow -fuzztime $(FUZZTIME) -run xxx ./internal/mcf/
	$(GO) test -fuzz FuzzStageRoute -fuzztime $(FUZZTIME) -run xxx ./internal/sfcroute/
	$(GO) test -fuzz FuzzDPAgainstExhaustive -fuzztime $(FUZZTIME) -run xxx ./internal/stroll/
	$(GO) test -fuzz FuzzDPTableLazyTop -fuzztime $(FUZZTIME) -run xxx ./internal/stroll/
	$(GO) test -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) -run xxx ./internal/wal/
	$(GO) test -fuzz FuzzDecodeCommand -fuzztime $(FUZZTIME) -run xxx ./cmd/vnfoptd/
	$(GO) test -fuzz FuzzRateScan -fuzztime $(FUZZTIME) -run xxx ./cmd/vnfoptd/

# A fuzz target that is not on the recipe above is one CI never runs:
# fail when the repository (bench/ is its own module) declares one the
# recipe does not name.
fuzz-list:
	@listed="$$($(MAKE) -s -n fuzz | grep -o -- '-fuzz Fuzz[A-Za-z0-9_]*' | cut -d' ' -f2)"; \
	for f in $$(grep -rh '^func Fuzz' --include='*_test.go' --exclude-dir=bench . | sed 's/^func \([A-Za-z0-9_]*\).*/\1/'); do \
		echo "$$listed" | grep -qx "$$f" || { echo "fuzz target $$f is not in 'make fuzz'"; bad=1; }; \
	done; test -z "$$bad"

# `go test -run 'A|B'` passes without a word when B names no test, so a
# renamed test silently drops out of a smoke run: fail when a name in a
# recipe's `-run 'TestA|TestB' ./pkg/` alternation is not declared as
# `func TestA(` in that package.
run-list:
	@lists="$$(sed -n "s/^\t.*-run '\(Test[^']*\)' \(\.\/[^ ]*\).*/\1 \2/p" Makefile)"; \
	test -n "$$lists" || { echo "run-list: no -run alternation found"; exit 1; }; \
	echo "$$lists" | { while read -r names dir; do \
		for t in $$(echo "$$names" | tr '|' ' '); do \
			grep -qs "^func $$t(" $${dir%/}/*_test.go || { echo "test $$t in a -run list is not declared in $$dir"; bad=1; }; \
		done; \
	done; test -z "$$bad"; }

# Code only its own tests keep alive, found by go/parser over the tree
# (internal_reach_test.go, facade_reach_test.go): an internal package no
# program imports, transitively, from cmd/, examples/ or the bench
# module; an exported func or method of internal/ that no non-test file
# outside its package names; a facade export no program uses. The
# exceptions and their reasons (test oracles, test harnesses, ablations
# EXPERIMENTS.md reports) are the one list reachAllowed.
orphans:
	$(GO) test -count=1 -run 'TestInternalPackagesReachedByPrograms|TestInternalNamesReachedOutsidePackage|TestFacadeReachedByPrograms' ./
