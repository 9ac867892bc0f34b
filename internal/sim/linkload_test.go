package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"vnfopt/internal/graph"
	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/sfcroute"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

func fatTreePPDC(k int) *model.PPDC {
	return model.MustNew(topology.MustFatTree(k, nil), model.Options{})
}

func TestFlowRouteVisitsWaypointsInOrder(t *testing.T) {
	d := fatTreePPDC(4)
	f := model.VMPair{Src: d.Topo.Hosts[0], Dst: d.Topo.Hosts[10], Rate: 5}
	p := model.Placement{d.Topo.Switches[2], d.Topo.Switches[9]}
	walk := flowRoute(d, f, p)
	if walk == nil {
		t.Fatal("nil route")
	}
	if walk[0] != f.Src || walk[len(walk)-1] != f.Dst {
		t.Fatalf("route endpoints %d..%d", walk[0], walk[len(walk)-1])
	}
	// Waypoints must appear in order.
	idx := 0
	want := []int{f.Src, p[0], p[1], f.Dst}
	for _, v := range walk {
		if idx < len(want) && v == want[idx] {
			idx++
		}
	}
	if idx != len(want) {
		t.Fatalf("route %v misses waypoint order %v", walk, want)
	}
	// Every hop must be an actual edge.
	for i := 0; i+1 < len(walk); i++ {
		if !d.Topo.Graph.HasEdge(walk[i], walk[i+1]) {
			t.Fatalf("route uses non-edge (%d,%d)", walk[i], walk[i+1])
		}
	}
}

func TestFlowRouteDirectWhenNoSFC(t *testing.T) {
	d := fatTreePPDC(2)
	f := model.VMPair{Src: d.Topo.Hosts[0], Dst: d.Topo.Hosts[1], Rate: 1}
	walk := flowRoute(d, f, nil)
	if len(walk) != 7 { // 6 hops across the k=2 tree
		t.Fatalf("direct route %v", walk)
	}
}

func TestFlowRouteSameHostTour(t *testing.T) {
	d := fatTreePPDC(2)
	h := d.Topo.Hosts[0]
	f := model.VMPair{Src: h, Dst: h, Rate: 1}
	// Tour through the rack's edge switch and its aggregation switch.
	var edgeSw, aggSw int
	for v, l := range d.Topo.Labels {
		switch l {
		case "e1.1":
			edgeSw = v
		case "a1.1":
			aggSw = v
		}
	}
	walk := flowRoute(d, f, model.Placement{edgeSw, aggSw})
	if walk == nil || walk[0] != h || walk[len(walk)-1] != h {
		t.Fatalf("tour walk %v", walk)
	}
	if len(walk) != 5 { // h-e, e-a, a-e, e-h
		t.Fatalf("tour length %d: %v", len(walk), walk)
	}
}

func TestLinkLoadsMatchCommCostOnUnitWeights(t *testing.T) {
	d := fatTreePPDC(4)
	rng := rand.New(rand.NewSource(1))
	w := workload.MustPairs(d.Topo, 25, workload.DefaultIntraRack, rng)
	p, _, err := (placement.DP{}).Place(d, w, model.NewSFC(3))
	if err != nil {
		t.Fatal(err)
	}
	// On unit link weights every unit of traffic crossing a link adds 1
	// to both Σ link loads and C_a.
	loads, err := LinkLoads(d, w, p)
	if err != nil {
		t.Fatal(err)
	}
	if linkTotal, commCost := summarize(loads).Total, d.CommCost(w, p); math.Abs(linkTotal-commCost) > 1e-6 {
		t.Fatalf("Σ link loads %v != C_a %v", linkTotal, commCost)
	}
}

func TestLinkLoadsSkipZeroRate(t *testing.T) {
	d := fatTreePPDC(2)
	w := model.Workload{{Src: d.Topo.Hosts[0], Dst: d.Topo.Hosts[1], Rate: 0}}
	loads, err := LinkLoads(d, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 0 {
		t.Fatalf("zero-rate flow loaded links: %v", loads)
	}
}

func TestAddMigrationLoads(t *testing.T) {
	d := fatTreePPDC(2)
	byLabel := map[string]int{}
	for v, l := range d.Topo.Labels {
		byLabel[l] = v
	}
	p := model.Placement{byLabel["e1.1"]}
	m := model.Placement{byLabel["e2.1"]} // 4 hops away
	loads := map[sfcroute.Link]float64{}
	addMigrationLoads(d, loads, p, m, 100)
	if len(loads) != 4 {
		t.Fatalf("migration touched %d links, want 4", len(loads))
	}
	for l, v := range loads {
		if v != 100 {
			t.Fatalf("link %v load %v, want 100", l, v)
		}
	}
	// Staying put adds nothing.
	addMigrationLoads(d, loads, p, p, 100)
	total := 0.0
	for _, v := range loads {
		total += v
	}
	if total != 400 {
		t.Fatalf("self-migration changed loads: total %v", total)
	}
}

func TestSummarize(t *testing.T) {
	loads := map[sfcroute.Link]float64{
		{U: 0, V: 1}: 10,
		{U: 1, V: 2}: 30,
		{U: 2, V: 3}: 20,
		{U: 3, V: 4}: 0, // ignored
	}
	r := summarize(loads)
	if r.Links != 3 || r.Total != 60 || r.Max != 30 || r.Mean != 20 {
		t.Fatalf("report %+v", r)
	}
	empty := summarize(nil)
	if empty.Links != 0 || empty.Total != 0 || empty.Mean != 0 {
		t.Fatalf("empty report %+v", empty)
	}
}

func TestMigrationReducesPeakLinkLoad(t *testing.T) {
	// The link view of the paper's story: after the hot tenant moves,
	// a stale placement drags heavy traffic across the fabric; migrating
	// reduces the total (and typically the peak) link load.
	d := fatTreePPDC(8)
	rng := rand.New(rand.NewSource(5))
	base := workload.MustPairsClustered(d.Topo, 64, 4, workload.DefaultIntraRack, rng)
	sched, err := workload.PaperBurst().Schedule(d.Topo, base, rng)
	if err != nil {
		t.Fatal(err)
	}
	sfc := model.NewSFC(3)
	p, _, err := (placement.DP{}).Place(d, base.WithRates(sched[1]), sfc)
	if err != nil {
		t.Fatal(err)
	}
	afternoon := base.WithRates(sched[8])
	pNew, _, err := (placement.DP{}).Place(d, afternoon, sfc)
	if err != nil {
		t.Fatal(err)
	}
	staleLoads, err := LinkLoads(d, afternoon, p)
	if err != nil {
		t.Fatal(err)
	}
	freshLoads, err := LinkLoads(d, afternoon, pNew)
	if err != nil {
		t.Fatal(err)
	}
	stale, fresh := summarize(staleLoads), summarize(freshLoads)
	if fresh.Total > stale.Total+1e-6 {
		t.Fatalf("fresh placement total load %v exceeds stale %v", fresh.Total, stale.Total)
	}
}

// TestRouteDisconnected: on a fabric of two components, 0-1 and 2-3, a
// flow that crosses them — directly, or through a VNF in the other
// component — has no route, and LinkLoads names it; a flow within one
// component still loads its links.
func TestRouteDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	// No model.New: it refuses a disconnected topology, and the loader
	// reads only the cost oracle.
	d := &model.PPDC{APSP: graph.AllPairs(g)}
	within := model.VMPair{Src: 0, Dst: 1, Rate: 2}
	for _, tc := range []struct {
		w    model.Workload
		p    model.Placement
		want string
	}{
		{model.Workload{within, {Src: 0, Dst: 3, Rate: 1}}, nil, "flow 1 is disconnected"},
		{model.Workload{within}, model.Placement{2}, "flow 0 is disconnected"},
	} {
		if _, err := LinkLoads(d, tc.w, tc.p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("LinkLoads(%v | %v): %v, want %q", tc.w, tc.p, err, tc.want)
		}
	}
	loads, err := LinkLoads(d, model.Workload{within}, nil)
	if err != nil || len(loads) != 1 || loads[sfcroute.Link{U: 0, V: 1}] != 2 {
		t.Fatalf("in-component flow: loads %v, err %v", loads, err)
	}
}
