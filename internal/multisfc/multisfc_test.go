package multisfc

import (
	"math"
	"math/rand"
	"testing"

	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

func scenario(t *testing.T, l int, seed int64) (*model.PPDC, model.Workload, []int, []model.SFC) {
	t.Helper()
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	rng := rand.New(rand.NewSource(seed))
	w := workload.MustPairsClustered(ft, l, 4, workload.DefaultIntraRack, rng)
	class := make([]int, l)
	for i := range class {
		class[i] = i % 2
	}
	sfcs := []model.SFC{model.NewSFC(3), model.NewSFC(2)}
	return d, w, class, sfcs
}

func TestPlacePerClass(t *testing.T) {
	d, w, class, sfcs := scenario(t, 20, 1)
	dep, total, err := Place(d, w, class, sfcs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Chains) != 2 || total <= 0 {
		t.Fatalf("chains %d, total %v", len(dep.Chains), total)
	}
	for c, chain := range dep.Chains {
		if err := chain.Validate(d, sfcs[c]); err != nil {
			t.Fatalf("class %d: %v", c, err)
		}
	}
	// Total must match the per-class evaluation.
	eval, err := CommCost(d, w, class, dep)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-eval) > 1e-6 {
		t.Fatalf("placement total %v != evaluated %v", total, eval)
	}
}

func TestSingleClassMatchesPlainTOP(t *testing.T) {
	d, w, _, _ := scenario(t, 15, 2)
	class := make([]int, len(w))
	sfcs := []model.SFC{model.NewSFC(3)}
	dep, total, err := Place(d, w, class, sfcs, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, cost, err := (placement.DP{}).Place(d, w, sfcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Chains[0].Equal(p) || math.Abs(total-cost) > 1e-6 {
		t.Fatalf("single-class deployment diverges from plain TOP: %v/%v vs %v/%v",
			dep.Chains[0], total, p, cost)
	}
}

func TestMigratePerClass(t *testing.T) {
	d, w, class, sfcs := scenario(t, 24, 3)
	dep, _, err := Place(d, w, class, sfcs, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	w2 := w.WithRates(workload.Rates(len(w), rng))
	out, ct, err := Migrate(d, w2, class, dep, 100, nil) // nil = mPareto
	if err != nil {
		t.Fatal(err)
	}
	if ct <= 0 {
		t.Fatalf("migration total %v", ct)
	}
	stay, err := CommCost(d, w2, class, dep)
	if err != nil {
		t.Fatal(err)
	}
	if ct > stay+1e-6 {
		t.Fatalf("migration total %v worse than staying %v", ct, stay)
	}
	for c, chain := range out.Chains {
		if err := chain.Validate(d, sfcs[c]); err != nil {
			t.Fatalf("migrated class %d invalid: %v", c, err)
		}
	}
}

func TestEmptyClassGetsValidChain(t *testing.T) {
	d, w, _, sfcs := scenario(t, 10, 5)
	class := make([]int, len(w)) // everything in class 0; class 1 empty
	dep, _, err := Place(d, w, class, sfcs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Chains[1].Validate(d, sfcs[1]); err != nil {
		t.Fatalf("empty class chain invalid: %v", err)
	}
}

func TestErrors(t *testing.T) {
	d, w, class, sfcs := scenario(t, 10, 6)
	if _, _, err := Place(d, w, class, nil, nil); err == nil {
		t.Fatal("no classes accepted")
	}
	if _, _, err := Place(d, w, class[:3], sfcs, nil); err == nil {
		t.Fatal("short class vector accepted")
	}
	bad := append([]int(nil), class...)
	bad[0] = 9
	if _, _, err := Place(d, w, bad, sfcs, nil); err == nil {
		t.Fatal("out-of-range class accepted")
	}
	dep, _, err := Place(d, w, class, sfcs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CommCost(d, w, bad, dep); err == nil {
		t.Fatal("CommCost accepted bad classes")
	}
	if _, _, err := Migrate(d, w, bad, dep, 1, nil); err == nil {
		t.Fatal("Migrate accepted bad classes")
	}
}
