package placement

import (
	"math"
	"math/rand"
	"testing"

	"vnfopt/internal/model"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// fig3Setup reproduces the paper's Fig. 3(a): a k=2 fat tree with both VMs
// of flow 1 on h1 and both VMs of flow 2 on h2, λ = ⟨100, 1⟩.
func fig3Setup(t *testing.T) (*model.PPDC, model.Workload) {
	t.Helper()
	d := model.MustNew(topology.MustFatTree(2, nil), model.Options{})
	h1, h2 := d.Topo.Hosts[0], d.Topo.Hosts[1]
	return d, model.Workload{
		{Src: h1, Dst: h1, Rate: 100},
		{Src: h2, Dst: h2, Rate: 1},
	}
}

func solvers() []Solver {
	return []Solver{DP{}, Optimal{}, Steering{}, Greedy{}}
}

func TestFig3OptimalPlacementCost(t *testing.T) {
	// The paper states the traffic-optimal 2-VNF placement for Fig. 3(a)
	// costs 410 (f1 on s1=e1.1, f2 on s2=a1.1, or a symmetric variant).
	d, w := fig3Setup(t)
	sfc := model.NewSFC(2)
	for _, s := range []Solver{DP{}, Optimal{}} {
		p, c, err := s.Place(d, w, sfc)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if c != 410 {
			t.Errorf("%s cost = %v, want 410 (paper Fig. 3(a))", s.Name(), c)
		}
		if err := p.Validate(d, sfc); err != nil {
			t.Errorf("%s placement invalid: %v", s.Name(), err)
		}
	}
}

func TestAllSolversProduceValidPlacements(t *testing.T) {
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	rng := rand.New(rand.NewSource(1))
	w := workload.MustPairs(ft, 20, workload.DefaultIntraRack, rng)
	for n := 1; n <= 5; n++ {
		sfc := model.NewSFC(n)
		for _, s := range solvers() {
			p, c, err := s.Place(d, w, sfc)
			if err != nil {
				t.Fatalf("%s n=%d: %v", s.Name(), n, err)
			}
			if err := p.Validate(d, sfc); err != nil {
				t.Fatalf("%s n=%d placement invalid: %v (p=%v)", s.Name(), n, err, p)
			}
			if got := d.CommCost(w, p); math.Abs(got-c) > 1e-6 {
				t.Fatalf("%s n=%d reported cost %v != evaluated %v", s.Name(), n, c, got)
			}
		}
	}
}

func TestOptimalIsLowerBound(t *testing.T) {
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		w := workload.MustPairs(ft, 10, workload.DefaultIntraRack, rng)
		for n := 3; n <= 4; n++ {
			sfc := model.NewSFC(n)
			opt, optCost, proven, err := (Optimal{}).PlaceProven(d, w, sfc)
			if err != nil {
				t.Fatal(err)
			}
			if !proven {
				t.Fatal("k=4 instance not solved to optimality")
			}
			if err := opt.Validate(d, sfc); err != nil {
				t.Fatal(err)
			}
			for _, s := range []Solver{DP{}, Steering{}, Greedy{}} {
				_, c, err := s.Place(d, w, sfc)
				if err != nil {
					t.Fatal(err)
				}
				if c < optCost-1e-6 {
					t.Fatalf("trial %d n=%d: %s cost %v beats optimal %v", trial, n, s.Name(), c, optCost)
				}
			}
			// The paper reports DP within ~6-12% of Optimal; enforce a
			// loose regression bound of 2x (the PrimalDual guarantee).
			_, dpCost, err := (DP{}).Place(d, w, sfc)
			if err != nil {
				t.Fatal(err)
			}
			if dpCost > 2*optCost+1e-6 {
				t.Fatalf("trial %d n=%d: DP %v exceeds 2x optimal %v", trial, n, dpCost, optCost)
			}
		}
	}
}

func TestWeightedPPDCSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ft := topology.MustFatTree(4, topology.PaperDelay(rng))
	d := model.MustNew(ft, model.Options{})
	w := workload.MustPairs(ft, 15, workload.DefaultIntraRack, rng)
	sfc := model.NewSFC(4)
	_, optCost, proven, err := (Optimal{Seed: DP{}}).PlaceProven(d, w, sfc)
	if err != nil || !proven {
		t.Fatalf("optimal: %v proven=%v", err, proven)
	}
	for _, s := range solvers() {
		p, c, err := s.Place(d, w, sfc)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(d, sfc); err != nil {
			t.Fatal(err)
		}
		if c < optCost-1e-6 {
			t.Fatalf("%s cost %v below optimal %v", s.Name(), c, optCost)
		}
	}
}

func TestSingleVNFAllSolversOptimal(t *testing.T) {
	// n=1 has a closed-form optimum; every solver should hit it.
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	w := workload.MustPairs(ft, 12, workload.DefaultIntraRack, rand.New(rand.NewSource(3)))
	sfc := model.NewSFC(1)
	_, want, err := (DP{}).Place(d, w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range solvers() {
		_, c, err := s.Place(d, w, sfc)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() == "Steering" || s.Name() == "Greedy" {
			// The baselines optimize unweighted delay, so at n=1 they may
			// only match or exceed the traffic-weighted optimum.
			if c < want-1e-6 {
				t.Fatalf("%s n=1 cost %v below optimum %v", s.Name(), c, want)
			}
			continue
		}
		if math.Abs(c-want) > 1e-6 {
			t.Fatalf("%s n=1 cost %v != %v", s.Name(), c, want)
		}
	}
}

func TestCheckInputsErrors(t *testing.T) {
	ft := topology.MustFatTree(2, nil)
	d := model.MustNew(ft, model.Options{})
	w := model.Workload{{Src: ft.Hosts[0], Dst: ft.Hosts[1], Rate: 1}}
	if _, _, err := (DP{}).Place(nil, w, model.NewSFC(2)); err == nil {
		t.Fatal("nil PPDC accepted")
	}
	if _, _, err := (DP{}).Place(d, w, model.NewSFC(0)); err == nil {
		t.Fatal("empty SFC accepted")
	}
	if _, _, err := (DP{}).Place(d, w, model.NewSFC(6)); err == nil {
		t.Fatal("SFC longer than switch count accepted")
	}
	bad := model.Workload{{Src: -1, Dst: 0, Rate: 1}}
	if _, _, err := (DP{}).Place(d, bad, model.NewSFC(2)); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

// TestOptimalNodeBudgetAnytime runs on bigInstance's n=9 mesh: the
// kernel's bound proves a k=4 fat tree at n=4 within 10 nodes.
func TestOptimalNodeBudgetAnytime(t *testing.T) {
	d, w, sfc := bigInstance(t)
	p, _, proven, err := (Optimal{NodeBudget: 10, Seed: DP{}}).PlaceProven(d, w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	if proven {
		t.Fatal("10-node budget cannot prove optimality on the n=9 mesh")
	}
	if err := p.Validate(d, sfc); err != nil {
		t.Fatalf("anytime incumbent invalid: %v", err)
	}
}

func TestTop1DPMatchesDirectStroll(t *testing.T) {
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	f := model.VMPair{Src: ft.Hosts[0], Dst: ft.Hosts[9], Rate: 7}
	for n := 1; n <= 6; n++ {
		p, c, err := Top1DP(d, f, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(p) != n {
			t.Fatalf("n=%d: placement %v", n, p)
		}
		if err := p.Validate(d, model.NewSFC(n)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		_, optC, proven, err := Top1Optimal(d, f, n, 0)
		if err != nil || !proven {
			t.Fatalf("n=%d optimal: %v proven=%v", n, err, proven)
		}
		if c < optC-1e-9 {
			t.Fatalf("n=%d: DP %v below optimal %v", n, c, optC)
		}
		if c > 2*optC+1e-9 {
			t.Fatalf("n=%d: DP %v above 2x optimal %v", n, c, optC)
		}
	}
}

func TestTop1TourSameHost(t *testing.T) {
	// Both VMs on the same host: the paper's n-tour case (Fig. 5). With
	// f1 on the rack's edge switch and f2 on an adjacent switch, the
	// optimal 2-tour in a k=2 fat tree costs λ·(1+1+2) = 4λ.
	d := model.MustNew(topology.MustFatTree(2, nil), model.Options{})
	h1 := d.Topo.Hosts[0]
	f := model.VMPair{Src: h1, Dst: h1, Rate: 5}
	p, c, proven, err := Top1Optimal(d, f, 2, 0)
	if err != nil || !proven {
		t.Fatalf("%v proven=%v", err, proven)
	}
	if len(p) != 2 {
		t.Fatalf("placement %v", p)
	}
	if c != 20 { // 5 * (1 + 1 + 2)
		t.Fatalf("tour cost = %v, want 20", c)
	}
	dpP, dpC, err := Top1DP(d, f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dpP) != 2 || dpC < c-1e-9 {
		t.Fatalf("DP tour: p=%v c=%v", dpP, dpC)
	}
}

func TestTop1PrimalDualFeasible(t *testing.T) {
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	f := model.VMPair{Src: ft.Hosts[2], Dst: ft.Hosts[13], Rate: 3}
	for n := 1; n <= 5; n++ {
		p, c, err := Top1PrimalDual(d, f, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := p.Validate(d, model.NewSFC(n)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		_, optC, _, err := Top1Optimal(d, f, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if c < optC-1e-9 {
			t.Fatalf("n=%d: primal-dual %v below optimal %v", n, c, optC)
		}
	}
}

func TestDPHandlesZeroTraffic(t *testing.T) {
	// All-zero rates: any valid placement costs 0; solvers must not
	// divide by Λ or otherwise choke.
	ft := topology.MustFatTree(2, nil)
	d := model.MustNew(ft, model.Options{})
	w := model.Workload{{Src: ft.Hosts[0], Dst: ft.Hosts[1], Rate: 0}}
	for _, s := range solvers() {
		p, c, err := s.Place(d, w, model.NewSFC(2))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if c != 0 {
			t.Fatalf("%s: cost %v for zero traffic", s.Name(), c)
		}
		if err := p.Validate(d, model.NewSFC(2)); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestDPColocationExtension(t *testing.T) {
	// With colocation allowed (paper future work), n may exceed |V_s| for
	// the greedy solvers and the chain may reuse switches; cost can only
	// improve or match the distinct-switch solution.
	ft := topology.MustFatTree(2, nil)
	strict := model.MustNew(ft, model.Options{})
	loose := model.MustNew(ft, model.Options{AllowColocation: true})
	w := model.Workload{
		{Src: ft.Hosts[0], Dst: ft.Hosts[0], Rate: 10},
	}
	sfc := model.NewSFC(3)
	_, cStrict, err := (Steering{}).Place(strict, w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	_, cLoose, err := (Steering{}).Place(loose, w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	if cLoose > cStrict+1e-9 {
		t.Fatalf("colocation made Steering worse: %v > %v", cLoose, cStrict)
	}
}
