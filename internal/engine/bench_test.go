package engine

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"vnfopt/internal/model"
	"vnfopt/internal/obs"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// benchEngine builds an engine over the standard fixture with an
// optional observer, pre-binding the hourly rate updates.
func benchEngine(b *testing.B, o *Observer) (*Engine, [][]RateUpdate) {
	b.Helper()
	e, sched := newEngineCfg(b, 7, Config{Policy: Policy{Hysteresis: 1.05, Cooldown: 1}, Observer: o})
	updates := make([][]RateUpdate, len(sched))
	for h, rates := range sched {
		updates[h] = hourUpdates(rates)
	}
	return e, updates
}

func runEngineBench(b *testing.B, o *Observer) {
	e, updates := benchEngine(b, o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := updates[i%len(updates)]
		if _, err := e.Ingest(u); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineStep is the uninstrumented baseline: the ≤3%-overhead
// acceptance gate for the observability layer compares this against
// BenchmarkEngineStepObserved.
func BenchmarkEngineStep(b *testing.B) {
	runEngineBench(b, nil)
}

// BenchmarkEngineStepObserved runs the identical loop with a live
// registry + event log attached.
func BenchmarkEngineStepObserved(b *testing.B) {
	r := obs.NewRegistry()
	runEngineBench(b, NewObserver(r, obs.NewEventLog(obs.DefaultEventCapacity), "bench"))
}

// diurnalEngine is the reaction-time benchmark's `diurnal-react`
// scenario in process (bench/workloads.go genDiurnal, seed 1, scenario
// 0): a k=8 fat tree, 2000 flows clustered on 8 racks, a 5-VNF chain,
// μ = 100, mPareto consulted every epoch (hysteresis 0), and the full
// PaperBurst rate vector of each hour as one update batch.
func diurnalEngine(tb testing.TB) (*Engine, [][]RateUpdate) {
	tb.Helper()
	ft := topology.MustFatTree(8, nil)
	rng := rand.New(rand.NewSource(7919))
	base := workload.MustPairsClustered(ft, 2000, 8, workload.DefaultIntraRack, rng)
	sched, err := workload.PaperBurst().Schedule(ft, base, rng)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(Config{PPDC: model.MustNew(ft, model.Options{}), SFC: model.NewSFC(5), Base: base, Mu: 100})
	if err != nil {
		tb.Fatal(err)
	}
	var hours [][]RateUpdate
	for _, rates := range sched {
		if slices.Max(rates) > 0 { // the schedule's dead hour: nothing to react to
			hours = append(hours, hourUpdates(rates))
		}
	}
	return e, hours
}

// BenchmarkEngineStepDiurnal times one hour of diurnalEngine: Ingest of
// the 2000-flow vector plus the Step that rebuilds the cost cache and
// consults TOM on it. Before/after figures are in docs/ENGINE.md.
func BenchmarkEngineStepDiurnal(b *testing.B) {
	e, hours := diurnalEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Ingest(hours[i%len(hours)]); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStepAllocationBudget holds a healthy epoch to the garbage of ONE
// cost-cache user: the consult reads the engine's cache — the switch
// closure (59 KB a copy at k=8) included — so an hour of diurnalEngine
// allocates ≈ 20 KB (DP tables, frontier points, the published snapshot).
// Each extra aggregation of the 2000-flow workload inside the consult
// costs ≈ 140 KB more — three of them made it 574 KB — so a build that
// creeps back in fails here.
func TestStepAllocationBudget(t *testing.T) {
	e, hours := diurnalEngine(t)
	const steps, budget = 50, 40 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		if _, err := e.Ingest(hours[i%len(hours)]); err != nil {
			t.Fatal(err)
		}
		res, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consulted {
			t.Fatalf("epoch %d did not consult: the budget would measure nothing", res.Epoch)
		}
	}
	runtime.ReadMemStats(&after)
	if perStep := (after.TotalAlloc - before.TotalAlloc) / steps; perStep > budget {
		t.Fatalf("one Ingest+Step allocates %d B, budget %d B: is the consult building its own cost cache again?", perStep, budget)
	}
}
