package migration

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// scenarioFromSeed derives a random-but-valid TOM scenario.
func scenarioFromSeed(seed int64) (*model.PPDC, model.Workload, model.SFC, model.Placement, float64, bool) {
	rng := rand.New(rand.NewSource(seed))
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	l := 5 + rng.Intn(20)
	w := workload.MustPairsClustered(ft, l, 2+rng.Intn(4), workload.DefaultIntraRack, rng)
	n := 2 + rng.Intn(3)
	sfc := model.NewSFC(n)
	p, _, err := (placement.DP{}).Place(d, w, sfc)
	if err != nil {
		return nil, nil, model.SFC{}, nil, 0, false
	}
	w2 := w.WithRates(workload.Rates(len(w), rng))
	mu := float64(rng.Intn(5000))
	return d, w2, sfc, p, mu, true
}

// TestPropertyMParetoNeverWorseThanStaying: for any scenario, mPareto's
// C_t is at most C_a(p) — frontier 1 (staying) is always a candidate.
func TestPropertyMParetoNeverWorseThanStaying(t *testing.T) {
	f := func(seed int64) bool {
		d, w, sfc, p, mu, ok := scenarioFromSeed(seed)
		if !ok {
			return true
		}
		m, ct, err := (MPareto{}).Migrate(d, w, sfc, p, mu)
		if err != nil {
			return false
		}
		if m.Validate(d, sfc) != nil {
			return false
		}
		return ct <= d.CommCost(w, p)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTotalCostConsistency: every migrator's reported C_t equals
// the model evaluation of its returned placement.
func TestPropertyTotalCostConsistency(t *testing.T) {
	migs := []Migrator{MPareto{}, NoMigration{}, Exhaustive{NodeBudget: 10_000, Seed: MPareto{}}}
	f := func(seed int64, which uint8) bool {
		d, w, sfc, p, mu, ok := scenarioFromSeed(seed)
		if !ok {
			return true
		}
		mig := migs[int(which)%len(migs)]
		m, ct, err := mig.Migrate(d, w, sfc, p, mu)
		if err != nil {
			return false
		}
		got := d.TotalCost(w, p, m, mu)
		return got <= ct+1e-6 && got >= ct-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFrontierSweepBounds: the parallel frontier sweep always
// starts at (0, C_a(p)) and every frontier's C_b is bounded by the full
// p→p' migration cost.
func TestPropertyFrontierSweepBounds(t *testing.T) {
	f := func(seed int64) bool {
		d, w, sfc, p, mu, ok := scenarioFromSeed(seed)
		if !ok {
			return true
		}
		pNew, _, err := (placement.DP{}).Place(d, w, sfc)
		if err != nil {
			return false
		}
		points := ParallelFrontiers(d, w, sfc, p, pNew, mu)
		if len(points) == 0 || points[0].Cb != 0 {
			return false
		}
		fullCb := d.MigrationCost(p, pNew, mu)
		for _, fp := range points {
			if fp.Cb > fullCb+1e-6 {
				return false
			}
			if fp.Ca < 0 || fp.Cb < 0 {
				return false
			}
		}
		return points[len(points)-1].Frontier.Equal(pNew)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
