package differential

import (
	"context"
	"math/rand"
	"testing"

	"vnfopt/internal/fault"
	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/obs"
	"vnfopt/internal/placement"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// problemInstance is one fabric + workload of TestProblemFormMatchesShim.
// The workload has what an aggregation can get wrong: flows sharing a
// host pair, flows at rate zero, and both at once.
func problemInstance(t *testing.T, seed int64, degraded bool) (*model.PPDC, model.Workload) {
	t.Helper()
	topo := topology.MustFatTree(4, nil)
	d := model.MustNew(topo, model.Options{})
	rng := rand.New(rand.NewSource(seed))
	w := workload.MustPairsClustered(topo, 30, 4, workload.DefaultIntraRack, rng)
	w = append(w, w[0], w[3], w[3])
	w[1].Rate, w[len(w)-1].Rate = 0, 0
	if !degraded {
		return d, w
	}
	// One dead switch, and one host uplink at 3.5× its weight.
	s := topo.Switches[rng.Intn(len(topo.Switches))]
	fs := fault.NewFaultSet(fault.Fault{Kind: fault.Switch, U: s})
	h := topo.Hosts[rng.Intn(len(topo.Hosts))]
	if up := topo.Graph.Neighbors(h)[0].To; up != s {
		fs = fs.Add(fault.Fault{Kind: fault.Degrade, U: h, V: up, Factor: 3.5})
	}
	view, err := fault.Apply(d, fs)
	if err != nil {
		t.Fatal(err)
	}
	plan := view.PlanService(w)
	if err := plan.Feasible(4); err != nil {
		t.Fatal(err)
	}
	return plan.PPDC, plan.Served
}

// TestProblemFormMatchesShim: every converted solver returns, on a
// Problem whose cache has been through three SetWorkload calls (other
// endpoints, then other rates, then the workload in question), the
// placement and the bit-equal cost its (d, w, …) method returns on fresh
// inputs — the cache is a function of (fabric, workload), and the
// Problem form reads nothing else.
func TestProblemFormMatchesShim(t *testing.T) {
	ctx := context.Background()
	solvers := []placement.Solver{
		placement.DP{},
		placement.Steering{},
		placement.Optimal{NodeBudget: 20_000, Seed: placement.DP{}},
		obs.InstrumentedSolver{Inner: placement.DP{}, M: obs.NewSolverMetrics(obs.NewRegistry(), "DP")},
	}
	migrators := []migration.Migrator{
		migration.MPareto{},
		migration.Exhaustive{NodeBudget: 20_000, Seed: migration.MPareto{}},
		migration.NoMigration{},
		migration.Budgeted{Inner: migration.MPareto{}, Budget: 1},
		obs.InstrumentedMigrator{Inner: migration.MPareto{}, M: obs.NewMigratorMetrics(obs.NewRegistry(), "mPareto")},
	}
	for _, s := range solvers {
		if _, ok := s.(placement.ProblemSolver); !ok {
			t.Fatalf("%T has no Problem form", s)
		}
	}
	for _, m := range migrators {
		if _, ok := m.(migration.ProblemMigrator); !ok {
			t.Fatalf("%T has no Problem form", m)
		}
	}

	moves := 0
	for seed := int64(1); seed <= 6; seed++ {
		for _, degraded := range []bool{false, true} {
			d, w := problemInstance(t, seed, degraded)
			rng := rand.New(rand.NewSource(seed))
			sfc := model.NewSFC(3 + int(seed)%2)

			// The cache's history: a workload on other endpoints, then the
			// right endpoints at other rates, then w itself.
			other := append(model.Workload(nil), w[:len(w)-2]...)
			for i := range other {
				other[i].Src, other[i].Dst = other[i].Dst, other[i].Src
			}
			cache := d.NewWorkloadCache(other)
			cache.SetWorkload(w.WithRates(workload.Rates(len(w), rng)))
			cache.SetWorkload(w)
			pr := cache.Problem(sfc)

			for _, s := range solvers {
				p1, c1, err1 := placement.Solve(ctx, s, pr)
				p2, c2, err2 := s.Place(d, w, sfc)
				if err1 != nil || err2 != nil {
					t.Fatalf("seed %d degraded=%v %s: errors %v / %v", seed, degraded, s.Name(), err1, err2)
				}
				if !p1.Equal(p2) || c1 != c2 {
					t.Fatalf("seed %d degraded=%v %T: Problem form %v/%v, shim %v/%v", seed, degraded, s, p1, c1, p2, c2)
				}
			}
			// Migrate from yesterday's optimum to today's traffic.
			p0, _, err := placement.DP{}.Place(d, w.WithRates(workload.Rates(len(w), rng)), sfc)
			if err != nil {
				t.Fatal(err)
			}
			for _, mu := range []float64{0, 50} {
				for _, m := range migrators {
					m1, c1, err1 := migration.Consult(ctx, m, pr, p0, mu)
					m2, c2, err2 := m.Migrate(d, w, sfc, p0, mu)
					if err1 != nil || err2 != nil {
						t.Fatalf("seed %d degraded=%v %s: errors %v / %v", seed, degraded, m.Name(), err1, err2)
					}
					if !m1.Equal(m2) || c1 != c2 {
						t.Fatalf("seed %d degraded=%v μ=%v %T: Problem form %v/%v, shim %v/%v", seed, degraded, mu, m, m1, c1, m2, c2)
					}
					moves += migration.MigrationCount(p0, m1)
				}
			}
		}
	}
	if moves == 0 {
		t.Fatal("no migrator moved a VNF on any instance: the sweep compared staying put with staying put")
	}
}
