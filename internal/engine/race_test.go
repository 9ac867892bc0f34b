package engine

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentIngestAndReads hammers the engine from concurrent
// writers (Ingest), a stepper, and lock-free readers (Snapshot) plus
// locked readers (Metrics, State). Run under `go test -race`: the test's
// assertions are weak on purpose — the race detector is the oracle.
func TestConcurrentIngestAndReads(t *testing.T) {
	e, sched := newEngine(t, Policy{Hysteresis: 1.05}, 11)

	const writers, readers = 4, 4
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(e.Flows())
				if _, err := e.Ingest([]RateUpdate{{Flow: i, Rate: rng.Float64() * 50}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := e.Snapshot()
				if len(s.Placement) != 3 || s.CommCost < 0 {
					t.Errorf("inconsistent snapshot %+v", s)
					return
				}
				if m := e.Metrics(); m.Epochs < 0 {
					t.Errorf("bad metrics %+v", m)
					return
				}
				_ = e.State()
			}
		}()
	}

	// The stepper threads the hourly schedule through while the chaos
	// writers race it.
	for _, rates := range sched {
		if _, err := e.Ingest(hourUpdates(rates)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if s := e.Snapshot(); s.Epoch != len(sched) {
		t.Fatalf("epoch %d after %d steps", s.Epoch, len(sched))
	}
}
