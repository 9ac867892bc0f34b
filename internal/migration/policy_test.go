package migration

import (
	"math"
	"math/rand"
	"testing"

	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

func policyScenario(t *testing.T, seed int64) (*model.PPDC, model.Workload, model.SFC, model.Placement) {
	t.Helper()
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	rng := rand.New(rand.NewSource(seed))
	w := workload.MustPairsClustered(ft, 30, 4, workload.DefaultIntraRack, rng)
	sfc := model.NewSFC(3)
	p, _, err := (placement.DP{}).Place(d, w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	// Shift rates so migration becomes attractive.
	for i := range w {
		w[i].Rate = workload.Rate(rng) * 20
	}
	return d, w, sfc, p
}

func TestBudgetedCapsMoves(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		d, w, sfc, p := policyScenario(t, seed)
		const mu = 10
		inner, innerCt, err := (MPareto{}).Migrate(d, w, sfc, p, mu)
		if err != nil {
			t.Fatal(err)
		}
		innerMoves := MigrationCount(p, inner)
		stay := d.CommCost(w, p)
		for budget := 0; budget <= len(p); budget++ {
			bu := Budgeted{Inner: MPareto{}, Budget: budget}
			m, ct, err := bu.Migrate(d, w, sfc, p, mu)
			if err != nil {
				t.Fatal(err)
			}
			if budget > 0 && MigrationCount(p, m) > budget {
				t.Fatalf("seed %d: %d moves over budget %d", seed, MigrationCount(p, m), budget)
			}
			if err := m.Validate(d, sfc); err != nil {
				t.Fatalf("seed %d budget %d: invalid trim: %v", seed, budget, err)
			}
			if ct > stay+1e-9 {
				t.Fatalf("seed %d budget %d: trimmed cost %v worse than staying %v", seed, budget, ct, stay)
			}
			if want := d.TotalCost(w, p, m, mu); math.Abs(ct-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("seed %d budget %d: reported %v != C_t %v", seed, budget, ct, want)
			}
			// An unconstrained (or non-binding) budget must pass the inner
			// proposal through untouched.
			if budget == 0 || budget >= innerMoves {
				if !m.Equal(inner) || math.Abs(ct-innerCt) > 1e-9 {
					t.Fatalf("seed %d budget %d: non-binding budget altered proposal", seed, budget)
				}
			}
		}
	}
}

func TestBudgetedName(t *testing.T) {
	if n := (Budgeted{Inner: MPareto{}, Budget: 2}).Name(); n != "mPareto(budget=2)" {
		t.Fatalf("name %q", n)
	}
}
