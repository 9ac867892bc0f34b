package vnfopt_test

import (
	"math"
	"math/rand"
	"testing"

	"vnfopt"
)

func TestRoutingFacade(t *testing.T) {
	topo := vnfopt.MustFatTree(4, nil)
	dc := vnfopt.MustNewPPDC(topo, vnfopt.Options{})
	rng := rand.New(rand.NewSource(1))
	flows := vnfopt.MustGeneratePairs(topo, 20, vnfopt.DefaultIntraRack, rng)
	sfc := vnfopt.NewSFC(3)
	p, cost, err := vnfopt.DPPlacement().Place(dc, flows, sfc)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := vnfopt.LinkLoads(dc, flows, p)
	if err != nil {
		t.Fatal(err)
	}
	rep := vnfopt.SummarizeLinkLoads(loads)
	if math.Abs(rep.Total-cost) > 1e-6 {
		t.Fatalf("Σ link loads %v != C_a %v on unit weights", rep.Total, cost)
	}
	route := vnfopt.FlowRoute(dc, flows[0], p)
	if route == nil || route[0] != flows[0].Src {
		t.Fatalf("route %v", route)
	}
	maxU, above, err := vnfopt.LinkUtilization(loads, rep.Max*2.5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if maxU != 0.4 || above != 0 {
		t.Fatalf("maxU=%v above=%d", maxU, above)
	}
}

func TestMigrationPolicyFacade(t *testing.T) {
	topo := vnfopt.MustFatTree(4, nil)
	dc := vnfopt.MustNewPPDC(topo, vnfopt.Options{})
	rng := rand.New(rand.NewSource(2))
	flows, err := vnfopt.GeneratePairsClustered(topo, 25, 4, vnfopt.DefaultIntraRack, rng)
	if err != nil {
		t.Fatal(err)
	}
	sfc := vnfopt.NewSFC(3)
	p, _, err := vnfopt.DPPlacement().Place(dc, flows, sfc)
	if err != nil {
		t.Fatal(err)
	}
	flows2 := flows.WithRates(vnfopt.GenerateRates(len(flows), rng))
	frozen := vnfopt.TriggeredMigration(vnfopt.MPareto(), 1e9)
	m, _, err := frozen.Migrate(dc, flows2, sfc, p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(p) {
		t.Fatal("huge hysteresis still migrated")
	}
	periodic := vnfopt.PeriodicMigration(vnfopt.NoMigration(), 2)
	if _, _, err := periodic.Migrate(dc, flows2, sfc, p, 100); err != nil {
		t.Fatal(err)
	}
}

func TestExtraTopologiesFacade(t *testing.T) {
	ls, err := vnfopt.LeafSpine(4, 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := vnfopt.Jellyfish(12, 3, 2, nil, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []*vnfopt.Topology{ls, jf} {
		dc := vnfopt.MustNewPPDC(topo, vnfopt.Options{})
		rng := rand.New(rand.NewSource(4))
		flows := vnfopt.MustGeneratePairs(topo, 10, 0.5, rng)
		if _, _, err := vnfopt.DPPlacement().Place(dc, flows, vnfopt.NewSFC(3)); err != nil {
			t.Fatalf("%s: %v", topo.Name, err)
		}
	}
}

func TestAnnealAndPredictiveFacade(t *testing.T) {
	topo := vnfopt.MustFatTree(4, nil)
	dc := vnfopt.MustNewPPDC(topo, vnfopt.Options{})
	rng := rand.New(rand.NewSource(7))
	flows, err := vnfopt.GeneratePairsClustered(topo, 20, 4, vnfopt.DefaultIntraRack, rng)
	if err != nil {
		t.Fatal(err)
	}
	sfc := vnfopt.NewSFC(3)
	_, dpCost, err := vnfopt.DPPlacement().Place(dc, flows, sfc)
	if err != nil {
		t.Fatal(err)
	}
	_, saCost, err := vnfopt.AnnealPlacement(2000, 1).Place(dc, flows, sfc)
	if err != nil {
		t.Fatal(err)
	}
	if saCost > dpCost+1e-6 {
		t.Fatalf("anneal %v worse than DP %v", saCost, dpCost)
	}
}
