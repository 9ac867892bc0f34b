package fault

import (
	"math"
	"strings"
	"testing"

	"vnfopt/internal/graph"
	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

func mustFatTree(t *testing.T, k int) *model.PPDC {
	t.Helper()
	topo, err := topology.FatTree(k, nil)
	if err != nil {
		t.Fatalf("FatTree(%d): %v", k, err)
	}
	return model.MustNew(topo, model.Options{})
}

func TestFaultSetNormalization(t *testing.T) {
	fs := NewFaultSet(Fault{Kind: Link, U: 7, V: 3}, Fault{Kind: Link, U: 3, V: 7})
	if fs.Len() != 1 {
		t.Fatalf("link {7,3} and {3,7} should normalize to one fault, got %d", fs.Len())
	}
	if !fs.Contains(Fault{Kind: Link, U: 7, V: 3}) {
		t.Fatal("normalized Contains failed")
	}
	fs = fs.Remove(Fault{Kind: Link, U: 3, V: 7})
	if !fs.Empty() {
		t.Fatal("Remove of the reversed link should empty the set")
	}
}

func TestFaultValidate(t *testing.T) {
	d := mustFatTree(t, 4)
	sw := d.Topo.Switches[0]
	h := d.Topo.Hosts[0]
	cases := []struct {
		f  Fault
		ok bool
	}{
		{Fault{Kind: Switch, U: sw}, true},
		{Fault{Kind: Host, U: h}, true},
		{Fault{Kind: Switch, U: h}, false},
		{Fault{Kind: Host, U: sw}, false},
		{Fault{Kind: Switch, U: -1}, false},
		{Fault{Kind: Link, U: h, V: sw}, d.Topo.Graph.HasEdge(h, sw)},
		{Fault{Kind: Link, U: h, V: h}, false},
		{Fault{Kind: "weird", U: sw}, false},
	}
	for _, c := range cases {
		err := c.f.Validate(d)
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v): err=%v, want ok=%v", c.f, err, c.ok)
		}
	}
}

func TestApplyEmptyIsPristine(t *testing.T) {
	d := mustFatTree(t, 4)
	v, err := Apply(d, FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	if v.PPDC() != d {
		t.Fatal("empty fault set should short-circuit to the pristine PPDC")
	}
	if v.Degraded() {
		t.Fatal("empty view reports degraded")
	}
	if v.components() != 1 {
		t.Fatalf("pristine fat-tree has 1 component, got %d", v.components())
	}
}

func TestSwitchFaultRemovesSwitchAndEdges(t *testing.T) {
	d := mustFatTree(t, 4)
	sw := d.Topo.Switches[0]
	v, err := Apply(d, NewFaultSet(Fault{Kind: Switch, U: sw}))
	if err != nil {
		t.Fatal(err)
	}
	dd := v.PPDC()
	if len(dd.Topo.Switches) != len(d.Topo.Switches)-1 {
		t.Fatalf("live switches %d, want %d", len(dd.Topo.Switches), len(d.Topo.Switches)-1)
	}
	for _, s := range dd.Topo.Switches {
		if s == sw {
			t.Fatal("dead switch still listed")
		}
	}
	if len(dd.Topo.Graph.Neighbors(sw)) != 0 {
		t.Fatal("dead switch keeps incident edges")
	}
	if !v.Dead(sw) {
		t.Fatal("Dead(sw) false")
	}
	// Placement validation against the degraded model rejects the dead
	// switch.
	sfc := model.NewSFC(1)
	if err := (model.Placement{sw}).Validate(dd, sfc); err == nil {
		t.Fatal("placement on dead switch validated")
	}
	if err := (model.Placement{dd.Topo.Switches[0]}).Validate(dd, sfc); err != nil {
		t.Fatalf("placement on live switch rejected: %v", err)
	}
	// Pristine model untouched.
	if len(d.Topo.Graph.Neighbors(sw)) == 0 {
		t.Fatal("pristine graph mutated")
	}
}

func TestLinkFaultReroutesCost(t *testing.T) {
	// Ring of 4 switches with one host on each of two opposite switches:
	// killing one ring link forces the long way around.
	topo, err := topology.Ring(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := model.MustNew(topo, model.Options{})
	s0, s1 := d.Topo.Switches[0], d.Topo.Switches[1]
	if !d.Topo.Graph.HasEdge(s0, s1) {
		t.Skip("ring layout unexpected")
	}
	before := d.Cost(s0, s1)
	v, err := Apply(d, NewFaultSet(Fault{Kind: Link, U: s0, V: s1}))
	if err != nil {
		t.Fatal(err)
	}
	after := v.PPDC().Cost(s0, s1)
	if !(after > before) {
		t.Fatalf("cost s0->s1 should rise after link kill: before=%v after=%v", before, after)
	}
	if math.IsInf(after, 1) {
		t.Fatalf("ring stays connected after one link kill, got Inf")
	}
}

func TestPartitionDetectionAndPlan(t *testing.T) {
	// A dumbbell — hosts h0,h1 on s0, hosts h2,h3 on s1, one s0-s1 bridge
	// link. Killing the bridge partitions the fabric into two components.
	d, hosts, switches := dumbbell(t)
	v, err := Apply(d, NewFaultSet(Fault{Kind: Link, U: switches[0], V: switches[1]}))
	if err != nil {
		t.Fatal(err)
	}
	if v.components() != 2 {
		t.Fatalf("components=%d, want 2", v.components())
	}
	if v.reachable(hosts[0], hosts[2]) {
		t.Fatal("cross-partition pair reported reachable")
	}
	if !v.reachable(hosts[0], hosts[1]) {
		t.Fatal("intra-partition pair reported unreachable")
	}

	w := model.Workload{
		{Src: hosts[0], Dst: hosts[1], Rate: 5}, // side A
		{Src: hosts[2], Dst: hosts[3], Rate: 1}, // side B
		{Src: hosts[0], Dst: hosts[2], Rate: 9}, // cross partition
	}
	plan := v.PlanService(w)
	if plan.Region != v.component(hosts[0]) {
		t.Fatalf("plan picked region %d, want side A (%d) with more intra rate", plan.Region, v.component(hosts[0]))
	}
	if len(plan.Served) != 1 || plan.Served[0].Src != hosts[0] || plan.Served[0].Dst != hosts[1] {
		t.Fatalf("served=%v, want only flow 0", plan.Served)
	}
	if !plan.Servable[0] || plan.Servable[1] || plan.Servable[2] {
		t.Fatalf("servable mask wrong: %v", plan.Servable)
	}
	wantReasons := map[int]UnservedReason{1: ReasonOutsideRegion, 2: ReasonPartitioned}
	if len(plan.Unserved) != 2 {
		t.Fatalf("unserved=%v, want 2 entries", plan.Unserved)
	}
	for _, u := range plan.Unserved {
		if wantReasons[u.Flow] != u.Reason {
			t.Errorf("flow %d reason %q, want %q", u.Flow, u.Reason, wantReasons[u.Flow])
		}
	}
	// Region switches exclude side B.
	for _, s := range plan.PPDC.Topo.Switches {
		if v.component(s) != plan.Region {
			t.Fatalf("region switch %d outside region", s)
		}
	}
	if err := plan.CheckCosts(); err != nil {
		t.Fatal(err)
	}
	if err := plan.Feasible(1); err != nil {
		t.Fatal(err)
	}
}

func TestDeadHostEndpointReported(t *testing.T) {
	d, hosts, _ := dumbbell(t)
	v, err := Apply(d, NewFaultSet(Fault{Kind: Host, U: hosts[0]}))
	if err != nil {
		t.Fatal(err)
	}
	w := model.Workload{
		{Src: hosts[0], Dst: hosts[1], Rate: 5},
		{Src: hosts[2], Dst: hosts[3], Rate: 1},
	}
	plan := v.PlanService(w)
	if len(plan.Unserved) != 1 || plan.Unserved[0].Flow != 0 || plan.Unserved[0].Reason != ReasonDeadEndpoint {
		t.Fatalf("unserved=%v, want flow 0 dead_endpoint", plan.Unserved)
	}
	if len(plan.Served) != 1 {
		t.Fatalf("served=%v, want 1 flow", plan.Served)
	}
}

func TestInfeasibleWhenAllSwitchesDead(t *testing.T) {
	d, _, switches := dumbbell(t)
	fs := FaultSet{}
	for _, s := range switches {
		fs = fs.Add(Fault{Kind: Switch, U: s})
	}
	v, err := Apply(d, fs)
	if err != nil {
		t.Fatal(err)
	}
	plan := v.PlanService(model.Workload{})
	if plan.Region != -1 {
		t.Fatalf("region=%d, want -1 with no live switches", plan.Region)
	}
	if err := plan.Feasible(1); err == nil {
		t.Fatal("Feasible should fail with no live switches")
	}
}

// dumbbell hand-builds h0,h1 - s0 = s1 - h2,h3 (bridge s0-s1) and
// returns the model plus the host and switch vertex lists.
func dumbbell(t *testing.T) (*model.PPDC, []int, []int) {
	t.Helper()
	g := graph.New(6)
	topo := &topology.Topology{
		Name:     "dumbbell",
		Graph:    g,
		Switches: []int{0, 1},
		Hosts:    []int{2, 3, 4, 5},
		Kind: []topology.NodeKind{
			topology.Switch, topology.Switch,
			topology.Host, topology.Host, topology.Host, topology.Host,
		},
		Labels: []string{"s0", "s1", "h0", "h1", "h2", "h3"},
	}
	g.AddEdge(2, 0, 1)
	g.AddEdge(3, 0, 1)
	g.AddEdge(4, 1, 1)
	g.AddEdge(5, 1, 1)
	g.AddEdge(0, 1, 1)
	d := model.MustNew(topo, model.Options{})
	return d, topo.Hosts, topo.Switches
}

// TestDiff pins what the standing oracle of ApplyDelta against Rebuild
// looks at. Routing walks the predecessor matrix (APSP.Path), so two
// views that agree on every cost and disagree on one predecessor must not
// pass as identical: over the unit square 0-1-3-2-0 every cost is the
// same with and without the weight-2 chord {0,3}, and with it vertex 3's
// predecessor from 0 is 0 itself, not 1.
func TestDiff(t *testing.T) {
	view := func(chord, far float64) *View {
		g := graph.New(4)
		g.AddEdge(0, 1, 1)
		g.AddEdge(1, 3, 1)
		g.AddEdge(0, 2, 1)
		g.AddEdge(2, 3, far)
		if chord > 0 {
			g.AddEdge(0, 3, chord)
		}
		d := &model.PPDC{Topo: &topology.Topology{Graph: g}, APSP: graph.AllPairs(g)}
		v, err := Apply(d, FaultSet{})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	square := view(0, 1)
	for _, c := range []struct {
		name string
		b    *View
		want string // substring of the divergence; "" for none
	}{
		{"identical", view(0, 1), ""},
		{"one cost", view(0, 1.5), "cost[2][3]"},
		{"one predecessor, every cost equal", view(2, 1), "pred[0][3]: 1 != 0"},
	} {
		err := Diff(square, c.b)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: Diff = %v, want a divergence at %s", c.name, err, c.want)
		}
	}
}
