package differential

import (
	"math/rand"
	"testing"

	"vnfopt/internal/model"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

func TestDifferentialFatTree(t *testing.T) {
	d := model.MustNew(topology.MustFatTree(4, nil), model.Options{})
	rng := rand.New(rand.NewSource(1))
	w1 := workload.MustPairsClustered(d.Topo, 15, 4, workload.DefaultIntraRack, rng)
	w2 := w1.WithRates(workload.Rates(len(w1), rng))
	rep, err := Run(d, w1, w2, model.NewSFC(3), Options{Mu: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OptimalProven {
		t.Fatal("k=4 should prove optimality unbudgeted")
	}
	for _, name := range []string{"DP", "Steering", "Greedy", "Optimal"} {
		if _, ok := rep.PlacementCosts[name]; !ok {
			t.Errorf("missing placement cost for %s", name)
		}
	}
	for _, name := range []string{"mPareto", "NoMigration", "Exhaustive"} {
		if _, ok := rep.MigrationCosts[name]; !ok {
			t.Errorf("missing migration cost for %s", name)
		}
	}
}

func TestDifferentialAcrossTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	topos := map[string]*topology.Topology{}
	if ls, err := topology.LeafSpine(4, 2, 3, nil); err == nil {
		topos["leaf-spine"] = ls
	}
	if jf, err := topology.Jellyfish(14, 3, 1, nil, rand.New(rand.NewSource(3))); err == nil {
		topos["jellyfish"] = jf
	}
	if rg, err := topology.Ring(9, nil); err == nil {
		topos["ring"] = rg
	}
	for name, topo := range topos {
		name, topo := name, topo
		t.Run(name, func(t *testing.T) {
			d := model.MustNew(topo, model.Options{})
			w1 := workload.MustPairs(topo, 10, 0.5, rng)
			w2 := w1.WithRates(workload.Rates(len(w1), rng))
			if _, err := Run(d, w1, w2, model.NewSFC(3), Options{Mu: 200, NodeBudget: 300_000}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDifferentialWithCapacity(t *testing.T) {
	d := model.MustNew(topology.MustFatTree(2, nil), model.Options{SwitchCapacity: 2})
	rng := rand.New(rand.NewSource(11))
	w1 := workload.MustPairs(d.Topo, 8, workload.DefaultIntraRack, rng)
	w2 := w1.WithRates(workload.Rates(len(w1), rng))
	if _, err := Run(d, w1, w2, model.NewSFC(4), Options{Mu: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentialRandomScenarios(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := model.MustNew(topology.MustFatTree(4, nil), model.Options{})
		l := 5 + rng.Intn(15)
		w1 := workload.MustPairsClustered(d.Topo, l, 2+rng.Intn(5), workload.DefaultIntraRack, rng)
		w2 := w1.WithRates(workload.Rates(len(w1), rng))
		n := 2 + rng.Intn(3)
		mu := float64(rng.Intn(3000))
		if _, err := Run(d, w1, w2, model.NewSFC(n), Options{Mu: mu}); err != nil {
			t.Fatalf("seed %d (l=%d n=%d mu=%v): %v", seed, l, n, mu, err)
		}
	}
}
