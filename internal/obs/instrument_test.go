package obs

import (
	"context"
	"math/rand"
	"testing"

	"vnfopt/internal/fault"
	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// cancellingSeed is an incumbent migrator that cancels the consult's
// context when asked and then answers as mPareto — a client that goes
// away while the exact search is being seeded.
type cancellingSeed struct{ cancel context.CancelFunc }

func (cancellingSeed) Name() string { return "cancellingSeed" }
func (s cancellingSeed) Migrate(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, error) {
	s.cancel()
	return migration.MPareto{}.Migrate(d, w, sfc, p, mu)
}

// oldFormOnly hides every method of a migrator but the (d, w, …) one,
// as a wrapper written before the Problem form does.
type oldFormOnly struct{ migration.Migrator }

// TestRepairConsultCancelsThroughWrappers: the daemon wraps every
// migrator in InstrumentedMigrator (and the engine a budgeted one in
// Budgeted), so the context of ApplyFaults has to travel through both to
// reach an exhaustive repair consult. The instance — a k=4 fat tree with
// a dead switch and every other link degraded by a seeded factor up to
// 100×, an 8-VNF chain — keeps the seeded search going for ≈ 9 000
// expansions, so its first poll (after 1 024) sees the cancellation the
// seed caused: the consult stops and the greedy patch stands. A wrapper
// that has only the old form drops the context, as both wrappers did,
// and the search runs to its end.
func TestRepairConsultCancelsThroughWrappers(t *testing.T) {
	topo := topology.MustFatTree(4, nil)
	pristine := model.MustNew(topo, model.Options{})
	rng := rand.New(rand.NewSource(2))
	w := workload.MustPairsClustered(topo, 24, 4, workload.DefaultIntraRack, rng)
	sfc := model.NewSFC(8)
	p, _, err := placement.DP{}.Place(pristine, w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	fs := fault.NewFaultSet(fault.Fault{Kind: fault.Switch, U: p[0]})
	for u := 0; u < topo.Graph.Order(); u++ {
		for _, e := range topo.Graph.Neighbors(u) {
			if u < e.To && u != p[0] && e.To != p[0] {
				fs = fs.Add(fault.Fault{Kind: fault.Degrade, U: u, V: e.To, Factor: 1 + 99*rng.Float64()})
			}
		}
	}
	view, err := fault.Apply(pristine, fs)
	if err != nil {
		t.Fatal(err)
	}
	plan := view.PlanService(w)
	pr := plan.PPDC.NewWorkloadCache(plan.Served).Problem(sfc)

	repair := func(wrap func(migration.Migrator) migration.Migrator) *migration.RepairResult {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		search := migration.Exhaustive{NodeBudget: 500_000, Seed: cancellingSeed{cancel}}
		inner := InstrumentedMigrator{
			Inner: migration.Budgeted{Inner: wrap(search), Budget: sfc.Len()},
			M:     NewMigratorMetrics(NewRegistry(), "Exhaustive"),
		}
		res, err := migration.Repair(ctx, pr, pristine, p, 100, inner)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Placement.Validate(plan.PPDC, sfc); err != nil {
			t.Fatalf("repair left an invalid placement: %v", err)
		}
		return res
	}

	res := repair(func(m migration.Migrator) migration.Migrator { return m })
	if !res.Fallback || res.FallbackReason != context.Canceled.Error() {
		t.Fatalf("cancelled consult: fallback=%v reason=%q, want the greedy patch with %q",
			res.Fallback, res.FallbackReason, context.Canceled)
	}
	if res := repair(func(m migration.Migrator) migration.Migrator { return oldFormOnly{m} }); res.Fallback {
		t.Fatalf("old-form wrapper: fallback (%s), want the search to run out its budget unaware of the context", res.FallbackReason)
	}
}
