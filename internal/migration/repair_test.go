package migration

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vnfopt/internal/fault"
	"vnfopt/internal/model"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// repairFixture builds a k=4 fat tree with a clustered workload, places
// the SFC, then kills the switch hosting VNF f1 and returns the service
// plan of the degraded fabric.
func repairFixture(t *testing.T, sfcLen int) (pristine *model.PPDC, plan *fault.ServicePlan, w model.Workload, sfc model.SFC, p model.Placement) {
	t.Helper()
	topo := topology.MustFatTree(4, nil)
	pristine = model.MustNew(topo, model.Options{})
	w = clusteredWorkload(t, topo, 24, 7)
	sfc = model.NewSFC(sfcLen)
	var err error
	p, _, err = MPareto{}.Migrate(pristine, w, sfc, initialPlacement(t, pristine, w, sfc), 0)
	if err != nil {
		t.Fatal(err)
	}
	view, err := fault.Apply(pristine, fault.NewFaultSet(fault.Fault{Kind: fault.Switch, U: p[0]}))
	if err != nil {
		t.Fatal(err)
	}
	plan = view.PlanService(w)
	return pristine, plan, plan.Served, sfc, p
}

func TestRepairMovesOffDeadSwitch(t *testing.T) {
	pristine, plan, w, sfc, p := repairFixture(t, 3)
	res, err := Repair(context.Background(), plan.PPDC.NewWorkloadCache(w).Problem(sfc), pristine, p, 1000, MPareto{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Placement.Validate(plan.PPDC, sfc); err != nil {
		t.Fatalf("repaired placement invalid on degraded fabric: %v", err)
	}
	if len(res.Forced) != 1 || res.Forced[0] != 0 {
		t.Fatalf("forced=%v, want [0]", res.Forced)
	}
	if res.Moves < 1 {
		t.Fatalf("moves=%d, want >= 1", res.Moves)
	}
	if math.IsInf(res.Cost, 0) || math.IsNaN(res.Cost) {
		t.Fatalf("repair cost not finite: %v", res.Cost)
	}
	for _, s := range res.Placement {
		if s == p[0] {
			t.Fatalf("repaired placement still uses dead switch %d", p[0])
		}
	}
}

func TestRepairNoopWhenPlacementLive(t *testing.T) {
	topo := topology.MustFatTree(4, nil)
	pristine := model.MustNew(topo, model.Options{})
	w := clusteredWorkload(t, topo, 16, 3)
	sfc := model.NewSFC(3)
	p := initialPlacement(t, pristine, w, sfc)
	// Kill a switch the placement does not use.
	var victim int
	used := map[int]bool{}
	for _, s := range p {
		used[s] = true
	}
	for _, s := range pristine.Topo.Switches {
		if !used[s] {
			victim = s
			break
		}
	}
	view, err := fault.Apply(pristine, fault.NewFaultSet(fault.Fault{Kind: fault.Switch, U: victim}))
	if err != nil {
		t.Fatal(err)
	}
	plan := view.PlanService(w)
	res, err := Repair(context.Background(), plan.PPDC.NewWorkloadCache(plan.Served).Problem(sfc), pristine, p, 1000, MPareto{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Forced) != 0 {
		t.Fatalf("forced=%v, want none (placement fully live)", res.Forced)
	}
	if err := res.Placement.Validate(plan.PPDC, sfc); err != nil {
		t.Fatal(err)
	}
}

// panicMigrator always panics, standing in for a buggy TOM solver.
type panicMigrator struct{}

func (panicMigrator) Name() string { return "panic" }
func (panicMigrator) Migrate(*model.PPDC, model.Workload, model.SFC, model.Placement, float64) (model.Placement, float64, error) {
	panic("deliberate test panic")
}

// errMigrator always fails.
type errMigrator struct{}

func (errMigrator) Name() string { return "err" }
func (errMigrator) Migrate(*model.PPDC, model.Workload, model.SFC, model.Placement, float64) (model.Placement, float64, error) {
	return nil, 0, fmt.Errorf("solver exploded")
}

func TestRepairGreedyFallbackOnSolverFailure(t *testing.T) {
	for _, inner := range []Migrator{panicMigrator{}, errMigrator{}} {
		pristine, plan, w, sfc, p := repairFixture(t, 3)
		res, err := Repair(context.Background(), plan.PPDC.NewWorkloadCache(w).Problem(sfc), pristine, p, 1000, inner)
		if err != nil {
			t.Fatalf("%s: repair must fall back, got error %v", inner.Name(), err)
		}
		if !res.Fallback || res.FallbackReason == "" {
			t.Fatalf("%s: fallback not reported: %+v", inner.Name(), res)
		}
		if err := res.Placement.Validate(plan.PPDC, sfc); err != nil {
			t.Fatalf("%s: fallback placement invalid: %v", inner.Name(), err)
		}
	}
}

func TestRepairCancelledContextFallsBack(t *testing.T) {
	pristine, plan, w, sfc, p := repairFixture(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Repair(ctx, plan.PPDC.NewWorkloadCache(w).Problem(sfc), pristine, p, 1000, MPareto{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Fatal("cancelled repair should report fallback")
	}
	if err := res.Placement.Validate(plan.PPDC, sfc); err != nil {
		t.Fatalf("fallback placement invalid: %v", err)
	}
}

func TestRepairInfeasibleWhenTooFewSwitches(t *testing.T) {
	// Linear fabric with 3 switches; kill two, ask for a 2-VNF chain.
	topo, err := topology.Linear(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	pristine := model.MustNew(topo, model.Options{})
	w := model.Workload{{Src: topo.Hosts[0], Dst: topo.Hosts[1], Rate: 2}}
	sfc := model.NewSFC(2)
	p := model.Placement{topo.Switches[0], topo.Switches[1]}
	fs := fault.NewFaultSet(
		fault.Fault{Kind: fault.Switch, U: topo.Switches[0]},
		fault.Fault{Kind: fault.Switch, U: topo.Switches[1]},
	)
	view, err := fault.Apply(pristine, fs)
	if err != nil {
		t.Fatal(err)
	}
	plan := view.PlanService(w)
	if _, err := Repair(context.Background(), plan.PPDC.NewWorkloadCache(plan.Served).Problem(sfc), pristine, p, 1, MPareto{}); err == nil {
		t.Fatal("repair should be infeasible with 1 live switch for 2 VNFs")
	}
}

func TestRepairNeverWorseThanGreedyPatch(t *testing.T) {
	// The TOM consult starts from the greedy patch; the final cost must
	// not exceed the pure-fallback cost for the same fault.
	pristine, plan, w, sfc, p := repairFixture(t, 3)
	exact, err := Repair(context.Background(), plan.PPDC.NewWorkloadCache(w).Problem(sfc), pristine, p, 1000, MPareto{})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Repair(context.Background(), plan.PPDC.NewWorkloadCache(w).Problem(sfc), pristine, p, 1000, errMigrator{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Cost > greedy.Cost+1e-9 {
		t.Fatalf("exact repair cost %v worse than greedy %v", exact.Cost, greedy.Cost)
	}
}

func initialPlacement(t *testing.T, d *model.PPDC, w model.Workload, sfc model.SFC) model.Placement {
	t.Helper()
	m, _, err := NoMigration{}.Migrate(d, w, sfc, firstSwitches(d, sfc.Len()), 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func firstSwitches(d *model.PPDC, n int) model.Placement {
	p := make(model.Placement, n)
	copy(p, d.Topo.Switches[:n])
	return p
}

func clusteredWorkload(t *testing.T, topo *topology.Topology, flows, seed int) model.Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	w := workload.MustPairs(topo, flows, workload.DefaultIntraRack, rng)
	for i := range w {
		w[i].Rate = workload.Rate(rng)
	}
	return w
}
