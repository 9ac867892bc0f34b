package placement

import (
	"math/rand"
	"testing"

	"vnfopt/internal/model"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

func TestSwitchCapSemantics(t *testing.T) {
	ft := topology.MustFatTree(2, nil)
	cases := []struct {
		opts model.Options
		want int
	}{
		{model.Options{}, 1},
		{model.Options{AllowColocation: true}, -1},
		{model.Options{SwitchCapacity: 3}, 3},
		{model.Options{AllowColocation: true, SwitchCapacity: 2}, 2},
	}
	for _, tc := range cases {
		d := model.MustNew(ft, tc.opts)
		if got := d.SwitchCap(); got != tc.want {
			t.Errorf("opts %+v: cap %d, want %d", tc.opts, got, tc.want)
		}
	}
}

func TestValidateHonorsCapacity(t *testing.T) {
	ft := topology.MustFatTree(2, nil)
	d := model.MustNew(ft, model.Options{SwitchCapacity: 2})
	s := d.Topo.Switches
	sfc := model.NewSFC(3)
	if err := (model.Placement{s[0], s[0], s[1]}).Validate(d, sfc); err != nil {
		t.Fatalf("capacity-2 doubling rejected: %v", err)
	}
	if err := (model.Placement{s[0], s[0], s[0]}).Validate(d, sfc); err == nil {
		t.Fatal("triple on capacity-2 switch accepted")
	}
}

func TestSolversHonorCapacity(t *testing.T) {
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{SwitchCapacity: 2})
	rng := rand.New(rand.NewSource(1))
	w := workload.MustPairs(ft, 15, workload.DefaultIntraRack, rng)
	sfc := model.NewSFC(5)
	for _, s := range []Solver{DP{}, Optimal{NodeBudget: 50_000, Seed: DP{}}, Steering{}, Greedy{}} {
		p, _, err := s.Place(d, w, sfc)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := p.Validate(d, sfc); err != nil {
			t.Fatalf("%s violated capacity: %v (p=%v)", s.Name(), err, p)
		}
	}
}

func TestCapacityRelaxationNeverHurtsOptimal(t *testing.T) {
	// Raising the per-switch capacity can only improve (or match) the
	// exhaustive optimum: every capacity-1 placement remains feasible.
	ft := topology.MustFatTree(2, nil)
	rng := rand.New(rand.NewSource(2))
	w := workload.MustPairs(ft, 8, workload.DefaultIntraRack, rng)
	sfc := model.NewSFC(3)
	strict := model.MustNew(ft, model.Options{})
	relaxed := model.MustNew(ft, model.Options{SwitchCapacity: 2})
	_, c1, proven1, err := (Optimal{}).PlaceProven(strict, w, sfc)
	if err != nil || !proven1 {
		t.Fatal(err)
	}
	_, c2, proven2, err := (Optimal{}).PlaceProven(relaxed, w, sfc)
	if err != nil || !proven2 {
		t.Fatal(err)
	}
	if c2 > c1+1e-9 {
		t.Fatalf("capacity 2 optimum %v worse than capacity 1 optimum %v", c2, c1)
	}
}

func TestCapacityAllowsLongChainsOnSmallFabric(t *testing.T) {
	// k=2 has 5 switches; a 8-VNF chain is infeasible at capacity 1 but
	// fits at capacity 2.
	ft := topology.MustFatTree(2, nil)
	rng := rand.New(rand.NewSource(3))
	w := workload.MustPairs(ft, 5, workload.DefaultIntraRack, rng)
	sfc := model.NewSFC(8)
	strict := model.MustNew(ft, model.Options{})
	if _, _, err := (Steering{}).Place(strict, w, sfc); err == nil {
		t.Fatal("8 VNFs on 5 capacity-1 switches accepted")
	}
	relaxed := model.MustNew(ft, model.Options{SwitchCapacity: 2})
	p, _, err := (Steering{}).Place(relaxed, w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(relaxed, sfc); err != nil {
		t.Fatal(err)
	}
}
