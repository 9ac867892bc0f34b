package engine

import (
	"math"
	"testing"
)

// TestIngestAccounting pins the IngestResult triple: accepted counts
// the whole batch, coalesced counts last-write-wins overwrites within
// the open epoch, and epoch names the epoch the batch folds into.
func TestIngestAccounting(t *testing.T) {
	e, _ := newEngine(t, Policy{Hysteresis: 1e9}, 1)

	res, err := e.Ingest([]RateUpdate{{Flow: 0, Rate: 1}, {Flow: 1, Rate: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 2 || res.Coalesced != 0 || res.Epoch != 1 {
		t.Fatalf("first batch %+v", res)
	}
	// Same flows again before the epoch closes: both overwrite.
	res, err = e.Ingest([]RateUpdate{{Flow: 0, Rate: 3}, {Flow: 1, Rate: 4}, {Flow: 2, Rate: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 3 || res.Coalesced != 2 || res.Epoch != 1 {
		t.Fatalf("overlapping batch %+v", res)
	}
	// A batch that repeats a flow within itself coalesces too.
	res, err = e.Ingest([]RateUpdate{{Flow: 3, Rate: 1}, {Flow: 3, Rate: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 2 || res.Coalesced != 1 {
		t.Fatalf("self-overlapping batch %+v", res)
	}

	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	// After the epoch closed the pending set is empty again: no
	// coalescing, and the batch targets epoch 2.
	res, err = e.Ingest([]RateUpdate{{Flow: 0, Rate: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Coalesced != 0 || res.Epoch != 2 {
		t.Fatalf("post-step batch %+v", res)
	}

	m := e.Metrics()
	if m.UpdatesAccepted != 8 || m.UpdatesCoalesced != 3 {
		t.Fatalf("metrics accepted %d coalesced %d, want 8/3", m.UpdatesAccepted, m.UpdatesCoalesced)
	}
}

// TestIngestAtomicValidation: a batch with any invalid update applies
// none of it.
func TestIngestAtomicValidation(t *testing.T) {
	e, _ := newEngine(t, Policy{Hysteresis: 1e9}, 1)
	for name, bad := range map[string][]RateUpdate{
		"negative flow":     {{Flow: -1, Rate: 1}},
		"flow == Flows()":   {{Flow: 0, Rate: 1}, {Flow: e.Flows(), Rate: 1}},
		"flow out of range": {{Flow: 0, Rate: 1}, {Flow: 10_000, Rate: 1}},
		"negative rate":     {{Flow: 0, Rate: 1}, {Flow: 1, Rate: -2}},
		"nan rate":          {{Flow: 0, Rate: 1}, {Flow: 1, Rate: math.NaN()}},
		"inf rate":          {{Flow: 0, Rate: 1}, {Flow: 1, Rate: math.Inf(1)}},
	} {
		if _, err := e.Ingest(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if m := e.Metrics(); m.UpdatesAccepted != 0 {
		t.Fatalf("rejected batches leaked %d accepted updates", m.UpdatesAccepted)
	}
	if res, err := e.Ingest(nil); err != nil || res.Accepted != 0 {
		t.Fatalf("empty batch: %+v, %v", res, err)
	}
	// The pending set is untouched: a later good batch coalesces nothing.
	res, err := e.Ingest([]RateUpdate{{Flow: 0, Rate: 2}})
	if err != nil || res.Coalesced != 0 {
		t.Fatalf("pending set dirtied by rejected batches: %+v, %v", res, err)
	}
}
