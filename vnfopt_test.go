package vnfopt_test

import (
	"math"
	"math/rand"
	"testing"

	"vnfopt"
)

// TestEndToEndLifecycle drives the full public API the way a downstream
// user would: build a PPDC, generate a workload, place the SFC, run a
// traffic shift and migrate.
func TestEndToEndLifecycle(t *testing.T) {
	topo := vnfopt.MustFatTree(4, nil)
	dc := vnfopt.MustNewPPDC(topo, vnfopt.Options{})
	rng := rand.New(rand.NewSource(42))
	flows := vnfopt.MustGeneratePairs(topo, 30, vnfopt.DefaultIntraRack, rng)
	sfc := vnfopt.NewSFC(4)

	// TOP: DP must beat or match the greedy baselines.
	p, dpCost, err := vnfopt.DPPlacement().Place(dc, flows, sfc)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(dc, sfc); err != nil {
		t.Fatal(err)
	}
	_, steerCost, err := vnfopt.SteeringPlacement().Place(dc, flows, sfc)
	if err != nil {
		t.Fatal(err)
	}
	_, greedyCost, err := vnfopt.GreedyPlacement().Place(dc, flows, sfc)
	if err != nil {
		t.Fatal(err)
	}
	if dpCost > steerCost+1e-6 || dpCost > greedyCost+1e-6 {
		t.Fatalf("DP %v should not lose to Steering %v or Greedy %v", dpCost, steerCost, greedyCost)
	}

	// Dynamic traffic: rates shift; TOM reacts.
	const mu = 100
	flows2 := flows.WithRates(vnfopt.GenerateRates(len(flows), rng))
	m, ct, err := vnfopt.MPareto().Migrate(dc, flows2, sfc, p, mu)
	if err != nil {
		t.Fatal(err)
	}
	if stay := dc.CommCost(flows2, p); ct > stay+1e-6 {
		t.Fatalf("mPareto %v worse than staying put %v", ct, stay)
	}
	if vnfopt.MigrationCount(p, m) < 0 {
		t.Fatal("negative migration count")
	}
}

func TestParetoFrontFacade(t *testing.T) {
	topo := vnfopt.MustFatTree(4, nil)
	dc := vnfopt.MustNewPPDC(topo, vnfopt.Options{})
	rng := rand.New(rand.NewSource(7))
	flows := vnfopt.MustGeneratePairs(topo, 20, vnfopt.DefaultIntraRack, rng)
	sfc := vnfopt.NewSFC(3)
	p, _, err := vnfopt.DPPlacement().Place(dc, flows, sfc)
	if err != nil {
		t.Fatal(err)
	}
	flows2 := flows.WithRates(vnfopt.GenerateRates(len(flows), rng))
	pNew, _, err := vnfopt.DPPlacement().Place(dc, flows2, sfc)
	if err != nil {
		t.Fatal(err)
	}
	points := vnfopt.ParallelFrontiers(dc, flows2, sfc, p, pNew, 200)
	if len(points) == 0 {
		t.Fatal("no frontiers")
	}
	if points[0].Cb != 0 {
		t.Fatalf("first frontier C_b = %v", points[0].Cb)
	}
	// The sweep's filtered front must be consistent with the helpers.
	_ = vnfopt.IsParetoFront(points)
	_ = vnfopt.IsConvexFront(points)
}

func TestStrollFacade(t *testing.T) {
	in := vnfopt.StrollInstance{
		Cost: [][]float64{
			{0, 2, 3, 4},
			{2, 0, 1, 2},
			{3, 1, 0, 1},
			{4, 2, 1, 0},
		},
		S: 0, T: 3, N: 2,
	}
	dp, err := vnfopt.SolveStrollDP(in)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := vnfopt.SolveStrollOptimal(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := vnfopt.SolveStrollPrimalDual(in)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cost != 4 { // 0→1→2→3 = 2+1+1
		t.Fatalf("optimal = %v, want 4", opt.Cost)
	}
	if dp.Cost < opt.Cost || pd.Cost < opt.Cost {
		t.Fatalf("heuristics below optimal: %v %v", dp.Cost, pd.Cost)
	}
}

func TestWeightedTopologiesFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, build := range []func() (*vnfopt.Topology, error){
		func() (*vnfopt.Topology, error) { return vnfopt.Linear(5, nil) },
		func() (*vnfopt.Topology, error) { return vnfopt.Ring(6, vnfopt.PaperDelay(rng)) },
		func() (*vnfopt.Topology, error) { return vnfopt.Star(4, vnfopt.PaperDelay(rng)) },
		func() (*vnfopt.Topology, error) { return vnfopt.RandomMesh(10, 6, 4, nil, rng) },
		func() (*vnfopt.Topology, error) { return vnfopt.FatTree(4, nil) },
	} {
		topo, err := build()
		if err != nil {
			t.Fatal(err)
		}
		vnfopt.MustNewPPDC(topo, vnfopt.Options{})
	}
}

func TestRoutingFacade(t *testing.T) {
	topo := vnfopt.MustFatTree(4, nil)
	dc := vnfopt.MustNewPPDC(topo, vnfopt.Options{})
	rng := rand.New(rand.NewSource(1))
	flows := vnfopt.MustGeneratePairs(topo, 20, vnfopt.DefaultIntraRack, rng)
	p, cost, err := vnfopt.DPPlacement().Place(dc, flows, vnfopt.NewSFC(3))
	if err != nil {
		t.Fatal(err)
	}
	loads, err := vnfopt.LinkLoads(dc, flows, p)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, l := range loads {
		total += l
	}
	if math.Abs(total-cost) > 1e-6 {
		t.Fatalf("Σ link loads %v != C_a %v on unit weights", total, cost)
	}
}
