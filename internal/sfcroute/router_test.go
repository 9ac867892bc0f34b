package sfcroute

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vnfopt/internal/fault"
	"vnfopt/internal/graph"
	"vnfopt/internal/model"
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

// relayPPDC is h0 - s1 - h2 plus a spur switch s3 that s1 reaches only
// over one of `relays` two-hop detours s1 - r - s3: a chain through s3
// crosses its detour's two links twice each, out and back.
func relayPPDC(t *testing.T, relays int) *model.PPDC {
	t.Helper()
	n := 4 + relays
	g := graph.New(n)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	topo := &topology.Topology{
		Name:     "relay",
		Graph:    g,
		Hosts:    []int{0, 2},
		Switches: []int{1, 3},
		Kind:     make([]topology.NodeKind, n),
		Labels:   make([]string, n),
	}
	topo.Kind[0], topo.Kind[1], topo.Kind[2], topo.Kind[3] = topology.Host, topology.Switch, topology.Host, topology.Switch
	for v := 4; v < n; v++ {
		g.AddEdge(1, v, 1)
		g.AddEdge(v, 3, 1)
		topo.Switches = append(topo.Switches, v)
		topo.Kind[v] = topology.Switch
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("relay topology: %v", err)
	}
	return model.MustNew(topo, model.Options{})
}

// loadOn is the committed load of link (u, v).
func loadOn(t *testing.T, r *Router, u, v int) float64 {
	t.Helper()
	i, ok := r.link(u, v)
	if !ok {
		t.Fatalf("no link (%d,%d)", u, v)
	}
	return r.load[i]
}

// lastWalk is the vertex walk of the route r assembled last.
func lastWalk(t *testing.T, r *Router, src int) []int {
	t.Helper()
	return walkVertices(t, r.priced, src, r.walk)
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
	for _, l := range []Link{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}} {
		if got := loadOn(t, r, l.U, l.V); got != 8 {
			t.Fatalf("link %v carries %v, want 8", l, got)
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
	if bound != 2 {
		t.Fatalf("residual max-flow bound %v, want 2", bound)
	}
	// A flow within the residual still gets through.
	if dec, err = r.Admit(0, 3, 2); err != nil || !dec.Admitted {
		t.Fatalf("residual-fitting flow: %+v, %v", dec, err)
	}
	// Three links at utilization 1: the hottest record is the first in
	// link order.
	if hot := r.LinkLoads()[0]; hot.Utilization != 1 || hot.Link != (Link{U: 0, V: 1}) {
		t.Fatalf("hottest link %+v, want (0,1) at utilization 1", hot)
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
	if loaded := r.PricedLoads(nil); len(loaded) != 0 {
		t.Fatalf("zero-rate flow committed load: %v", loaded)
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
	if bound != 5 {
		t.Fatalf("chain max-flow bound %v, want 5", bound)
	}
}

func TestMultiTraversalOverflowTriggersReroute(t *testing.T) {
	// The one site s3 hangs off s1 behind one relay per attempt the
	// reroute bound allows; every route detours over a relay and back,
	// crossing its two links twice each and overflowing capacity 6 at
	// rate 4. Each attempt blocks its detour, the next takes another,
	// and the router reports the failure as fragmentation: paths exist,
	// none fits unsplittably.
	d := relayPPDC(t, maxReroutes+1)
	r, err := NewRouter(d, Config{Capacity: 6, Classify: true})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if err := r.BeginEpoch([][]int{{3}}); err != nil {
		t.Fatalf("BeginEpoch: %v", err)
	}
	dec, err := r.Admit(0, 2, 4)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if dec.Admitted {
		t.Fatalf("admitted a flow that overflows every detour: %+v", dec)
	}
	if dec.Reason != ReasonFragmented || dec.Reroutes != maxReroutes {
		t.Fatalf("reason %q after %d reroutes, want %q after %d (relaxation bound 6 ≥ 4, so not infeasible)",
			dec.Reason, dec.Reroutes, ReasonFragmented, maxReroutes)
	}
	if loaded := r.PricedLoads(nil); len(loaded) != 0 {
		t.Fatalf("rejected flow left committed load: %v", loaded)
	}
	// Rate 3 fits one detour crossed twice: admitted on the first, whose
	// links each carry 2 traversals × rate.
	dec, err = r.Admit(0, 2, 3)
	if err != nil || !dec.Admitted || dec.Reroutes != 0 {
		t.Fatalf("rate-3 flow: %+v, %v", dec, err)
	}
	walk := lastWalk(t, r, 0)
	if want := []int{0, 1, 4, 3, 4, 1, 2}; !slices.Equal(walk, want) {
		t.Fatalf("walk %v, want %v", walk, want)
	}
	for _, l := range []Link{{U: 1, V: 4}, {U: 3, V: 4}} {
		if got := loadOn(t, r, l.U, l.V); got != 6 {
			t.Fatalf("detour link %v carries %v, want 6 (two traversals)", l, got)
		}
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
	if u := r.LinkLoads()[0].Utilization; u != 0.3 {
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
		w1 := lastWalk(t, r, src)
		if err := r.BeginEpoch(nil); err != nil {
			t.Fatalf("BeginEpoch 2: %v", err)
		}
		d2, err := r.Admit(src, dst, 10)
		if err != nil || !d2.Admitted {
			t.Fatalf("epoch-2 admit: %+v, %v", d2, err)
		}
		return w1, lastWalk(t, r, src)
	}

	w1, w2 := route(0)
	if !slices.Equal(w1, w2) {
		t.Fatalf("alpha=0 routed differently across epochs: %v vs %v", w1, w2)
	}
	w1, w2 = route(2)
	if slices.Equal(w1, w2) {
		t.Fatalf("alpha=2 kept the loaded path across epochs: %v", w2)
	}
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
	if loaded := r.PricedLoads(nil); len(loaded) != 0 {
		t.Fatalf("loads survived epoch reset: %v", loaded)
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
	if _, err := r.AdmitAll(nil, []Demand{{Src: 0, Dst: 2, Rate: 1}}); err == nil {
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

// TestFailedBeginEpochChangesNothing: BeginEpoch validates the sites
// before it touches anything. A refused call leaves the committed loads
// and prices as they were, admission refuses until a BeginEpoch
// succeeds, and that one prices from the loads still committed — the
// same epoch a router that never saw the bad call begins.
func TestFailedBeginEpochChangesNothing(t *testing.T) {
	d := linearPPDC(t, 2)
	routers := make([]*Router, 2)
	for i := range routers {
		r, err := NewRouter(d, Config{Capacity: 10, Alpha: 1, Classify: true})
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		if err := r.BeginEpoch(PlacementSites(model.Placement{1})); err != nil {
			t.Fatalf("BeginEpoch: %v", err)
		}
		if dec, err := r.Admit(0, 3, 5); err != nil || !dec.Admitted {
			t.Fatalf("Admit: %+v, %v", dec, err)
		}
		routers[i] = r
	}
	bad, good := routers[0], routers[1]
	loads := slices.Clone(bad.load)
	for _, sites := range [][][]int{{{1}, {}}, {{1}, {2, 1}}} {
		if err := bad.BeginEpoch(sites); err == nil {
			t.Fatalf("accepted sites %v", sites)
		}
		if got := bad.load; !slices.Equal(got, loads) {
			t.Fatalf("refused BeginEpoch(%v) changed the loads: %v, was %v", sites, got, loads)
		}
	}
	if _, err := bad.Admit(0, 3, 1); err == nil {
		t.Fatal("Admit after a refused BeginEpoch succeeded")
	}
	if _, err := bad.AdmitAll(nil, []Demand{{Src: 0, Dst: 3, Rate: 1}}); err == nil {
		t.Fatal("AdmitAll after a refused BeginEpoch succeeded")
	}
	if _, err := bad.maxFlow(0, 3); err == nil {
		t.Fatal("maxFlow after a refused BeginEpoch succeeded")
	}
	var decs [2]Decision
	for i, r := range routers {
		if err := r.BeginEpoch(PlacementSites(model.Placement{2})); err != nil {
			t.Fatalf("BeginEpoch: %v", err)
		}
		dec, err := r.Admit(0, 3, 1)
		if err != nil || !dec.Admitted {
			t.Fatalf("Admit: %+v, %v", dec, err)
		}
		decs[i] = dec
	}
	// u = 0.5 on the three links: priced cost = 3 · (1 + 1·0.5/0.5) = 6.
	if decs[0] != decs[1] || decs[0].Cost != 6 {
		t.Fatalf("after the refused call %+v, without it %+v; want cost 6", decs[0], decs[1])
	}
	if got, want := bad.load, good.load; !slices.Equal(got, want) {
		t.Fatalf("loads %v, want %v", got, want)
	}
}

// TestUtilization: each link's utilization is its load over the uniform
// capacity, and the records come hottest first.
func TestUtilization(t *testing.T) {
	r, err := NewRouter(linearPPDC(t, 1), Config{Capacity: 100})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if err := r.SetLoads([]PricedLink{{U: 0, V: 1, Load: 10}, {U: 1, V: 2, Load: 50}}); err != nil {
		t.Fatalf("SetLoads: %v", err)
	}
	recs := r.LinkLoads()
	if len(recs) != 2 || recs[0].Utilization != 0.5 || recs[1].Utilization != 0.1 {
		t.Fatalf("records %+v, want utilization 0.5 then 0.1", recs)
	}
}

// TestLoadsHeadroom: LinkLoads surfaces capacity headroom per link,
// sorted hottest first with ties in link order, clamps negative
// headroom on overloaded links, and omits unloaded ones; Hottest agrees
// with its first record.
func TestLoadsHeadroom(t *testing.T) {
	r, err := NewRouter(linearPPDC(t, 3), Config{Capacity: 100})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	err = r.SetLoads([]PricedLink{
		{U: 0, V: 1, Load: 30},
		{U: 1, V: 2, Load: 120}, // overloaded
		{U: 2, V: 3, Load: 30},  // utilization tie with (0,1)
		{U: 3, V: 4, Load: 0},   // dropped
	})
	if err != nil {
		t.Fatalf("SetLoads: %v", err)
	}
	recs := r.LinkLoads()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Link != (Link{U: 1, V: 2}) || recs[0].Utilization != 1.2 || recs[0].Headroom != 0 {
		t.Fatalf("hottest record wrong: %+v", recs[0])
	}
	if recs[1].Link != (Link{U: 0, V: 1}) || recs[2].Link != (Link{U: 2, V: 3}) {
		t.Fatalf("tie order not link order: %+v", recs[1:])
	}
	if recs[1].Headroom != 70 {
		t.Fatalf("headroom = %v, want 70", recs[1].Headroom)
	}
	// Hottest reads the first record's utilization, and a link exactly at
	// the threshold is not above it.
	if hot, above := r.Hottest(0.3); hot != recs[0].Utilization || above != 1 {
		t.Fatalf("Hottest = %v, %d above 0.3; want %v, 1", hot, above, recs[0].Utilization)
	}
}

// TestSetLoadsRefusesBadRecords: SetLoads takes PricedLoads' records in
// link order; a repeated, misordered or unknown link, or an invalid
// load, is refused with an error naming the link.
func TestSetLoadsRefusesBadRecords(t *testing.T) {
	r, err := NewRouter(linearPPDC(t, 2), Config{Capacity: 10})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	for _, tc := range []struct {
		recs []PricedLink
		want string
	}{
		{[]PricedLink{{U: 0, V: 1, Load: 1}, {U: 1, V: 0, Load: 2}}, "link (1,0) repeated"},
		{[]PricedLink{{U: 1, V: 2, Load: 1}, {U: 0, V: 1, Load: 2}}, "link (0,1) out of link order"},
		{[]PricedLink{{U: 0, V: 2, Load: 1}}, "no link (0,2)"},
		{[]PricedLink{{U: 2, V: 3, Load: -1}}, "link (2,3): invalid load"},
	} {
		if err := r.SetLoads(tc.recs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("SetLoads(%v): %v, want an error with %q", tc.recs, err, tc.want)
		}
	}
	recs := []PricedLink{{U: 0, V: 1, Load: 1}, {U: 2, V: 3, Load: 2.5}}
	if err := r.SetLoads(recs); err != nil {
		t.Fatalf("SetLoads: %v", err)
	}
	if got := r.PricedLoads(nil); !slices.Equal(got, recs) {
		t.Fatalf("PricedLoads %v, want the records set %v", got, recs)
	}
}

// TestRebaseMatchesRouterOverRebuild holds a router rebased from fault
// view to fault view — the pristine fabric's CSR under +Inf and degraded
// weights — to a router built over fault.Rebuild's filtered clone of the
// same fault set: every decision bit for bit with its reason and
// reroutes, the max-flow bound of every rejection, and the link loads.
// Random link, switch, host and degrade sets on a k=4 fat tree, now and
// then none, at α 0 and 0.5 with Classify on, three epochs a set so the
// loads price the next.
func TestRebaseMatchesRouterOverRebuild(t *testing.T) {
	d := model.MustNew(topology.MustFatTree(4, nil), model.Options{})
	var pool []fault.Fault
	for _, s := range d.Switches() {
		pool = append(pool, fault.Fault{Kind: fault.Switch, U: s})
	}
	for _, h := range d.Hosts() {
		pool = append(pool, fault.Fault{Kind: fault.Host, U: h})
	}
	for i, e := range d.Topo.Graph.Edges() {
		pool = append(pool, fault.Fault{Kind: fault.Link, U: e.U, V: e.V}, fault.Fault{Kind: fault.Degrade, U: e.U, V: e.V, Factor: []float64{0.5, 3, 40}[i%3]})
	}
	for _, alpha := range []float64{0, 0.5} {
		rng := rand.New(rand.NewSource(43))
		cfg := Config{Capacity: 150, Alpha: alpha, Classify: true}
		rebased, err := NewRouter(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var view *fault.View
		rejects, infeasible := 0, 0
		for trial := range 20 {
			var fs fault.FaultSet
			for range (1 + rng.Intn(4)) * min(1, trial%5) {
				fs = fs.Add(pool[rng.Intn(len(pool))])
			}
			if view, err = fault.ApplyDelta(d, view, fs); err != nil {
				t.Fatal(err)
			}
			rebased.Rebase(view.PPDC())
			fresh, err := NewRouter(fault.Rebuild(d, fs).PPDC(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			live := view.PPDC().Topo.Switches
			for epoch := range 3 {
				var sites [][]int
				for range 3 {
					sites = append(sites, []int{live[rng.Intn(len(live))]})
				}
				demands := passDemands(rng, d.Hosts(), 40, len(d.Hosts()))
				for _, r := range []*Router{rebased, fresh} {
					if err := r.BeginEpoch(sites); err != nil {
						t.Fatal(err)
					}
				}
				for i := range demands {
					dm := &demands[i]
					dm.Rate = 1 + 9*rng.Float64()
					got, err1 := rebased.Admit(dm.Src, dm.Dst, dm.Rate)
					want, err2 := fresh.Admit(dm.Src, dm.Dst, dm.Rate)
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					where := fmt.Sprintf("alpha %v trial %d %v epoch %d demand %d %+v", alpha, trial, fs.Faults(), epoch, i, *dm)
					if !sameDecision(got, want) {
						t.Fatalf("%s:\n rebased %+v\n rebuilt %+v", where, got, want)
					}
					if want.Admitted {
						continue
					}
					rejects++
					if want.Reason == ReasonInfeasible {
						infeasible++
					}
					gb, err1 := rebased.maxFlow(dm.Src, dm.Dst)
					wb, err2 := fresh.maxFlow(dm.Src, dm.Dst)
					if err1 != nil || err2 != nil || math.Float64bits(gb) != math.Float64bits(wb) {
						t.Fatalf("%s: max-flow bound %v (%v), rebuilt %v (%v)", where, gb, err1, wb, err2)
					}
				}
				if got, want := rebased.LinkLoads(), fresh.LinkLoads(); !reflect.DeepEqual(got, want) {
					t.Fatalf("alpha %v trial %d epoch %d: link loads\n rebased %+v\n rebuilt %+v", alpha, trial, epoch, got, want)
				}
			}
		}
		if rejects == 0 || infeasible == 0 || infeasible == rejects {
			t.Fatalf("alpha %v: %d rejects, %d infeasible: the fixture does not reach both reasons", alpha, rejects, infeasible)
		}
	}
}
