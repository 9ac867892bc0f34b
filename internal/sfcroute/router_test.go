package sfcroute

import (
	"math"
	"reflect"
	"testing"

	"vnfopt/internal/graph"
	"vnfopt/internal/model"
	"vnfopt/internal/routing"
	"vnfopt/internal/topology"
)

// linearPPDC is h0 - s1 - ... - s_k - h_{k+1} with unit weights.
func linearPPDC(t *testing.T, switches int) *model.PPDC {
	t.Helper()
	topo, err := topology.Linear(switches, nil)
	if err != nil {
		t.Fatalf("Linear(%d): %v", switches, err)
	}
	return model.MustNew(topo, model.Options{})
}

// starPPDC is h0 - s1 - h2 plus spur switches s3.. hanging off s1: the
// only way a chain can visit a spur is to cross its link twice.
func starPPDC(t *testing.T, spurs int) *model.PPDC {
	t.Helper()
	n := 3 + spurs
	g := graph.New(n)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	topo := &topology.Topology{
		Name:     "star",
		Graph:    g,
		Hosts:    []int{0, 2},
		Switches: []int{1},
		Kind:     make([]topology.NodeKind, n),
		Labels:   make([]string, n),
	}
	topo.Kind[0], topo.Kind[1], topo.Kind[2] = topology.Host, topology.Switch, topology.Host
	for i := 0; i < spurs; i++ {
		v := 3 + i
		g.AddEdge(1, v, 1)
		topo.Switches = append(topo.Switches, v)
		topo.Kind[v] = topology.Switch
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("star topology: %v", err)
	}
	return model.MustNew(topo, model.Options{})
}

func TestAdmitCommitsAndExhaustsCapacity(t *testing.T) {
	d := linearPPDC(t, 2)
	r, err := NewRouter(d, Config{Capacity: 10, Classify: true})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if err := r.BeginEpoch(nil); err != nil {
		t.Fatalf("BeginEpoch: %v", err)
	}
	for i := 0; i < 2; i++ {
		dec, err := r.Admit(0, 3, 4)
		if err != nil {
			t.Fatalf("Admit %d: %v", i, err)
		}
		if !dec.Admitted || dec.Cost != 3 {
			t.Fatalf("Admit %d: %+v", i, dec)
		}
	}
	loads := r.Loads()
	for _, l := range []routing.Link{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}} {
		if loads[l] != 8 {
			t.Fatalf("link %v carries %v, want 8", l, loads[l])
		}
	}
	// Third flow needs 4 but only 2 headroom remains anywhere: the
	// max-flow bound proves no routing at all can carry it.
	dec, err := r.Admit(0, 3, 4)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if dec.Admitted || dec.Reason != ReasonInfeasible {
		t.Fatalf("over-capacity flow: %+v, want rejection with %q", dec, ReasonInfeasible)
	}
	bound, err := r.maxFlow(0, 3)
	if err != nil {
		t.Fatalf("maxFlow: %v", err)
	}
	if bound.Flow != 2 {
		t.Fatalf("residual max-flow bound %v, want 2", bound.Flow)
	}
	// A flow within the residual still gets through.
	if dec, err = r.Admit(0, 3, 2); err != nil || !dec.Admitted {
		t.Fatalf("residual-fitting flow: %+v, %v", dec, err)
	}
	if u, link := r.MaxUtilization(); u != 1 || link != (routing.Link{U: 0, V: 1}) {
		t.Fatalf("MaxUtilization = %v at %v", u, link)
	}
}

func TestZeroRateFlowRoutesWithoutCommitting(t *testing.T) {
	d := linearPPDC(t, 1)
	r, err := NewRouter(d, Config{Capacity: 1})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if err := r.BeginEpoch(nil); err != nil {
		t.Fatalf("BeginEpoch: %v", err)
	}
	dec, err := r.Admit(0, 2, 0)
	if err != nil || !dec.Admitted || dec.Cost != 2 {
		t.Fatalf("zero-rate: %+v, %v", dec, err)
	}
	if len(r.Loads()) != 0 {
		t.Fatalf("zero-rate flow committed load: %v", r.Loads())
	}
}

func TestProvableRejectionOfInfeasibleChain(t *testing.T) {
	d := linearPPDC(t, 2)
	r, err := NewRouter(d, Config{Capacity: 5, Classify: true})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if err := r.BeginEpoch(PlacementSites(model.Placement{1, 2})); err != nil {
		t.Fatalf("BeginEpoch: %v", err)
	}
	// Rate 7 exceeds every link's capacity: even the splittable max-flow
	// relaxation caps at 5, so the rejection is a proof, not a heuristic.
	dec, err := r.Admit(0, 3, 7)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if dec.Admitted || dec.Reason != ReasonInfeasible {
		t.Fatalf("infeasible chain: %+v, want %q", dec, ReasonInfeasible)
	}
	bound, err := r.maxFlow(0, 3)
	if err != nil {
		t.Fatalf("maxFlow: %v", err)
	}
	if bound.Flow != 5 {
		t.Fatalf("chain max-flow bound %v, want 5", bound.Flow)
	}
}

func TestMultiTraversalOverflowTriggersReroute(t *testing.T) {
	// One spur site off s1 per attempt the reroute bound allows; every
	// candidate path crosses its spur link twice (out and back),
	// overflowing capacity 6 at rate 4. The router tries every spur, then
	// reports the failure as fragmentation: paths exist, none fits
	// unsplittably.
	d := starPPDC(t, maxReroutes+1)
	r, err := NewRouter(d, Config{Capacity: 6, Classify: true})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	spurs := make([]int, maxReroutes+1)
	for i := range spurs {
		spurs[i] = 3 + i
	}
	if err := r.BeginEpoch([][]int{spurs}); err != nil {
		t.Fatalf("BeginEpoch: %v", err)
	}
	dec, err := r.Admit(0, 2, 4)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if dec.Admitted {
		t.Fatalf("admitted a flow that overflows every spur: %+v", dec)
	}
	if dec.Reason != ReasonFragmented {
		t.Fatalf("reason %q, want %q (relaxation bound 6 ≥ 4, so not infeasible)", dec.Reason, ReasonFragmented)
	}
	if len(r.Loads()) != 0 {
		t.Fatalf("rejected flow left committed load: %v", r.Loads())
	}
	// Halving the rate fits a single traversal pair: admitted, and the
	// spur link carries 2 traversals × rate.
	dec, err = r.Admit(0, 2, 3)
	if err != nil || !dec.Admitted {
		t.Fatalf("rate-3 flow: %+v, %v", dec, err)
	}
	spur := mkLink(dec.Walk[1], dec.Walk[2])
	if got := r.Loads()[spur]; got != 6 {
		t.Fatalf("spur link %v carries %v, want 6 (two traversals)", spur, got)
	}
}

func TestMaxUtilizationTargetAdmitsAgainstHeadroom(t *testing.T) {
	d := linearPPDC(t, 1)
	r, err := NewRouter(d, Config{Capacity: 10, MaxUtilization: 0.4})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if err := r.BeginEpoch(nil); err != nil {
		t.Fatalf("BeginEpoch: %v", err)
	}
	if dec, _ := r.Admit(0, 2, 5); dec.Admitted {
		t.Fatal("admitted a flow above the 40% provisioning point")
	}
	if dec, _ := r.Admit(0, 2, 3); !dec.Admitted {
		t.Fatal("rejected a flow within the provisioning point")
	}
	if dec, _ := r.Admit(0, 2, 3); dec.Admitted {
		t.Fatal("admitted past the provisioning point (3+3 > 4)")
	}
	if u, _ := r.MaxUtilization(); u != 0.3 {
		t.Fatalf("utilization %v, want 0.3", u)
	}
}

func TestCongestionPricingSpreadsAcrossEpochs(t *testing.T) {
	// Ring of 4 switches: two equal-cost 2-hop switch paths between
	// opposite corners. Capacity-blind Dijkstra is deterministic, so
	// every epoch routes the flow identically with Alpha 0; with Alpha>0
	// the previous epoch's load re-prices the chosen side and the next
	// epoch routes around it.
	topo, err := topology.Ring(4, nil)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	d := model.MustNew(topo, model.Options{})
	src, dst := topo.Hosts[0], topo.Hosts[2] // under switches 0 and 2

	route := func(alpha float64) ([]int, []int) {
		r, err := NewRouter(d, Config{Capacity: 100, Alpha: alpha})
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		if err := r.BeginEpoch(nil); err != nil {
			t.Fatalf("BeginEpoch: %v", err)
		}
		d1, err := r.Admit(src, dst, 10)
		if err != nil || !d1.Admitted {
			t.Fatalf("epoch-1 admit: %+v, %v", d1, err)
		}
		if err := r.BeginEpoch(nil); err != nil {
			t.Fatalf("BeginEpoch 2: %v", err)
		}
		d2, err := r.Admit(src, dst, 10)
		if err != nil || !d2.Admitted {
			t.Fatalf("epoch-2 admit: %+v, %v", d2, err)
		}
		return d1.Walk, d2.Walk
	}

	w1, w2 := route(0)
	if !equalWalks(w1, w2) {
		t.Fatalf("alpha=0 routed differently across epochs: %v vs %v", w1, w2)
	}
	w1, w2 = route(2)
	if equalWalks(w1, w2) {
		t.Fatalf("alpha=2 kept the loaded path across epochs: %v", w2)
	}
}

func equalWalks(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBeginEpochResetsLoadsAndReprices(t *testing.T) {
	d := linearPPDC(t, 1)
	r, err := NewRouter(d, Config{Capacity: 10, Alpha: 1})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if err := r.BeginEpoch(nil); err != nil {
		t.Fatalf("BeginEpoch: %v", err)
	}
	if dec, _ := r.Admit(0, 2, 5); !dec.Admitted || dec.Cost != 2 {
		t.Fatalf("first epoch admit: cost %v, want pristine 2", dec.Cost)
	}
	if err := r.BeginEpoch(nil); err != nil {
		t.Fatalf("BeginEpoch 2: %v", err)
	}
	if len(r.Loads()) != 0 {
		t.Fatalf("loads survived epoch reset: %v", r.Loads())
	}
	// u = 0.5 on both links: priced cost = 2 · (1 + 1·0.5/0.5) = 4.
	dec, err := r.Admit(0, 2, 1)
	if err != nil || !dec.Admitted {
		t.Fatalf("second epoch admit: %+v, %v", dec, err)
	}
	if math.Abs(dec.Cost-4) > 1e-12 {
		t.Fatalf("re-priced cost %v, want 4", dec.Cost)
	}
}

func TestRouterConfigValidation(t *testing.T) {
	d := linearPPDC(t, 1)
	if _, err := NewRouter(d, Config{}); err == nil {
		t.Fatal("accepted zero capacity")
	}
	if _, err := NewRouter(d, Config{Capacity: 10, Alpha: -1}); err == nil {
		t.Fatal("accepted negative alpha")
	}
	if _, err := NewRouter(d, Config{Capacity: 10, MaxUtilization: 1.5}); err == nil {
		t.Fatal("accepted utilization target above 1")
	}
	if _, err := NewRouter(d, Config{Capacity: -1}); err == nil {
		t.Fatal("accepted negative capacity")
	}
	r, err := NewRouter(d, Config{Capacity: 10})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if _, err := r.Admit(0, 2, 1); err == nil {
		t.Fatal("Admit before BeginEpoch succeeded")
	}
	if _, err := r.AdmitAll([]Demand{{Src: 0, Dst: 2, Rate: 1}}); err == nil {
		t.Fatal("AdmitAll before BeginEpoch succeeded")
	}
	if err := r.BeginEpoch(nil); err != nil {
		t.Fatalf("BeginEpoch: %v", err)
	}
	if _, err := r.Admit(0, 2, math.Inf(1)); err == nil {
		t.Fatal("accepted infinite rate")
	}
}

func TestSaturatedReport(t *testing.T) {
	d := linearPPDC(t, 2)
	r, err := NewRouter(d, Config{Capacity: 10})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if err := r.BeginEpoch(nil); err != nil {
		t.Fatalf("BeginEpoch: %v", err)
	}
	if dec, _ := r.Admit(0, 3, 5); !dec.Admitted {
		t.Fatal("admit failed")
	}
	recs := r.LinkLoads()
	if len(recs) != 3 {
		t.Fatalf("%d loaded links, want 3", len(recs))
	}
	for _, rec := range recs {
		if rec.Utilization != 0.5 || rec.Headroom != 5 {
			t.Fatalf("record %+v, want utilization 0.5 headroom 5", rec)
		}
	}
}

// TestAdmitDeterministicUnderTightCapacity pins the tie-break of the
// multi-traversal overflow check: a tour that visits a VNF site off its
// path crosses two links twice each and overflows both by the same
// excess, so which one the reroute blocks must not depend on map
// iteration order. The daemon's WAL replay relies on it — a routed
// engine has to re-admit the same flows the same way.
func TestAdmitDeterministicUnderTightCapacity(t *testing.T) {
	d := model.MustNew(topology.MustFatTree(4, nil), model.Options{})
	sw := d.Switches()
	sites := [][]int{{sw[0]}, {sw[len(sw)/2]}, {sw[len(sw)-1]}}
	hosts := d.Hosts()
	run := func() []Decision {
		r, err := NewRouter(d, Config{Capacity: 25, Alpha: 1, Classify: true})
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		var out []Decision
		for epoch := 0; epoch < 2; epoch++ {
			if err := r.BeginEpoch(sites); err != nil {
				t.Fatalf("BeginEpoch: %v", err)
			}
			for i := 0; i < 24; i++ {
				dec, err := r.Admit(hosts[i%len(hosts)], hosts[(i*13+5)%len(hosts)], 10)
				if err != nil {
					t.Fatalf("Admit %d: %v", i, err)
				}
				out = append(out, dec)
			}
		}
		return out
	}
	want := run()
	rerouted, rejected := 0, 0
	for _, dec := range want {
		if dec.Reroutes > 0 {
			rerouted++
		}
		if !dec.Admitted {
			rejected++
		}
	}
	if rerouted == 0 || rejected == 0 {
		t.Fatalf("sequence is not tight: %d rerouted, %d rejected of %d", rerouted, rejected, len(want))
	}
	for rep := 1; rep < 50; rep++ {
		if got := run(); !reflect.DeepEqual(got, want) {
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("repeat %d, admit %d diverges:\n got %+v\nwant %+v", rep, i, got[i], want[i])
				}
			}
		}
	}
}
