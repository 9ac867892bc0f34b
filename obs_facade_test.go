package vnfopt_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"vnfopt"
)

// TestObservabilityFacade wires the whole public observability surface:
// instrumented solver + migrator, an engine observer, and Prometheus
// exposition.
func TestObservabilityFacade(t *testing.T) {
	topo := vnfopt.MustFatTree(4, nil)
	dc := vnfopt.MustNewPPDC(topo, vnfopt.Options{})
	rng := rand.New(rand.NewSource(7))
	flows := vnfopt.MustGeneratePairs(topo, 16, vnfopt.DefaultIntraRack, rng)
	sfc := vnfopt.NewSFC(3)

	reg := vnfopt.NewMetricsRegistry()
	events := vnfopt.NewEventLog(8)
	eng, err := vnfopt.NewEngine(vnfopt.EngineConfig{
		PPDC: dc, SFC: sfc, Base: flows, Mu: 1e3,
		Placer:   vnfopt.InstrumentedPlacement(vnfopt.DPPlacement(), reg),
		Migrator: vnfopt.InstrumentedMigration(vnfopt.MPareto(), reg),
		Observer: vnfopt.NewObserver(reg, events, "facade"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 3; epoch++ {
		updates := make([]vnfopt.RateUpdate, len(flows))
		for i, r := range vnfopt.GenerateRates(len(flows), rng) {
			updates[i] = vnfopt.RateUpdate{Flow: i, Rate: r}
		}
		if _, err := eng.Ingest(updates); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`vnfopt_engine_epochs_total{scenario="facade"} 3`,
		`vnfopt_solver_calls_total{solver="DP"} 1`,
		`vnfopt_migrator_calls_total{migrator="mPareto"} 3`,
		`vnfopt_engine_epoch_seconds_count{scenario="facade"} 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestContextSolverFacade: the context-aware entry points return the
// context error once cancelled.
func TestContextSolverFacade(t *testing.T) {
	topo := vnfopt.MustFatTree(4, nil)
	dc := vnfopt.MustNewPPDC(topo, vnfopt.Options{})
	rng := rand.New(rand.NewSource(8))
	flows := vnfopt.MustGeneratePairs(topo, 8, vnfopt.DefaultIntraRack, rng)
	sfc := vnfopt.NewSFC(3)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := vnfopt.OptimalPlacementContext(ctx, dc, flows, sfc, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("placement err %v, want Canceled", err)
	}
	p, _, err := vnfopt.DPPlacement().Place(dc, flows, sfc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := vnfopt.OptimalMigrationContext(ctx, dc, flows, sfc, p, 1e3, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("migration err %v, want Canceled", err)
	}

	// Uncancelled context: identical to the plain entry points.
	m1, c1, err := vnfopt.OptimalMigrationContext(context.Background(), dc, flows, sfc, p, 1e3, 5000)
	if err != nil {
		t.Fatal(err)
	}
	m2, c2, err := vnfopt.OptimalMigration(5000).Migrate(dc, flows, sfc, p, 1e3)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 || !m1.Equal(m2) {
		t.Fatalf("context migration diverged: %v/%v vs %v/%v", m1, c1, m2, c2)
	}

	in := vnfopt.StrollInstance{
		Cost: [][]float64{
			{0, 1, 2, 2, 3},
			{1, 0, 1, 2, 2},
			{2, 1, 0, 1, 2},
			{2, 2, 1, 0, 1},
			{3, 2, 2, 1, 0},
		},
		S: 0, T: 4, N: 2,
	}
	if _, err := vnfopt.SolveStrollOptimalContext(ctx, in, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("stroll err %v, want Canceled", err)
	}
	res, err := vnfopt.SolveStrollOptimalContext(context.Background(), in, 0)
	if err != nil || !res.Optimal {
		t.Fatalf("stroll %+v err %v", res, err)
	}
}
