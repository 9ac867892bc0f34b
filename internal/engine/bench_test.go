package engine

import (
	"testing"

	"vnfopt/internal/obs"
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
