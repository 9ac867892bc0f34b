package fault

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vnfopt/internal/graph"
	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

// twinBridge hand-builds a ring of four switches s0–s1–s2–s3–s0 with a
// second link, of weight 2, beside s0–s1 (a multigraph), and two hosts on
// each switch: hosts 4+2s and 5+2s on switch s.
func twinBridge(t *testing.T) *model.PPDC {
	t.Helper()
	g := graph.New(12)
	topo := &topology.Topology{Name: "twin-bridge", Graph: g, Switches: []int{0, 1, 2, 3}}
	for v := range 12 {
		kind, label := topology.Switch, fmt.Sprintf("s%d", v)
		if v >= 4 {
			kind, label = topology.Host, fmt.Sprintf("h%d", v-4)
			topo.Hosts = append(topo.Hosts, v)
		}
		topo.Kind = append(topo.Kind, kind)
		topo.Labels = append(topo.Labels, label)
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 0, 1)
	for s := range 4 {
		g.AddEdge(s, 4+2*s, 1)
		g.AddEdge(s, 5+2*s, 1)
	}
	return model.MustNew(topo, model.Options{})
}

// fullWeights is the pass over every pristine slot that ApplyDelta's
// weight vector once came from, kept as its oracle: keepEdge and
// effWeight at each slot under fs.
func fullWeights(d *model.PPDC, fs FaultSet) []float64 {
	dead, down, degr := fs.filter(d.Topo.Graph.Order())
	fabric := d.APSP.Fabric()
	wt := make([]float64, fabric.NumSlots())
	fabric.ForEachSlot(func(slot, u, w int, pw float64) {
		wt[slot] = graph.Inf
		if keepEdge(dead, down, u, w) {
			wt[slot] = effWeight(degr, u, w, pw)
		}
	})
	return wt
}

// sameStructure reports whether a and b hold the same link, switch and
// host faults: the ones that decide the component labels.
func sameStructure(a, b FaultSet) bool {
	for _, f := range a.delta(b) {
		if f.Kind != Degrade {
			return false
		}
	}
	return true
}

// TestApplyDeltaReweighsOnlyChangedArcs pins the view's mechanism on a
// multigraph, over a scripted run — a degrade on the parallel pair and
// then its factor changed, a degrade cut and healed while its link is
// down, a switch killed beside a cut link — and then a seeded random
// inject/heal sequence over every fault the fabric admits and degrades at
// two factors. After every transition:
//
//   - the view's weight vector, which re-weighs only the arcs of the
//     faults in one of the two sets, is bit-equal to a full slot pass
//     over the pristine fabric (fullWeights);
//   - the view shares its base's component slice exactly when the two
//     fault sets hold the same link, switch and host faults, and is
//     otherwise labelled afresh;
//   - the view equals Rebuild's (Diff).
func TestApplyDeltaReweighsOnlyChangedArcs(t *testing.T) {
	d := twinBridge(t)
	prev, err := Apply(d, FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	var shares [2]int // transitions labelled afresh, and sharing
	step := func(name string, fs FaultSet) {
		t.Helper()
		v, err := ApplyDelta(d, prev, fs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, want := v.PPDC().APSP.Fabric().Weights(), fullWeights(d, fs)
		for slot := range want {
			if math.Float64bits(got[slot]) != math.Float64bits(want[slot]) {
				t.Fatalf("%s: slot %d weighs %v, the full pass %v", name, slot, got[slot], want[slot])
			}
		}
		if shared, want := &v.comp[0] == &prev.comp[0], sameStructure(prev.faults, fs); shared != want {
			t.Fatalf("%s: the view shares its base's labels: %v, want %v", name, shared, want)
		} else if shared {
			shares[1]++
		} else {
			shares[0]++
		}
		if err := Diff(v, Rebuild(d, fs)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prev = v
	}

	degr01 := func(f float64) Fault { return Fault{Kind: Degrade, U: 0, V: 1, Factor: f} }
	degr23 := Fault{Kind: Degrade, U: 2, V: 3, Factor: 2}
	link12, link23 := Fault{Kind: Link, U: 1, V: 2}, Fault{Kind: Link, U: 2, V: 3}
	sw2 := Fault{Kind: Switch, U: 2}
	fs := FaultSet{}
	for _, s := range []struct {
		name string
		next func() FaultSet
	}{
		{"degrade the parallel pair", func() FaultSet { return fs.Add(degr01(2)) }},
		{"change its factor", func() FaultSet { return fs.Add(degr01(3)) }},
		{"degrade s2-s3", func() FaultSet { return fs.Add(degr23) }},
		{"cut the degraded link", func() FaultSet { return fs.Add(link23) }},
		{"heal the degrade while cut", func() FaultSet { return fs.Remove(degr23) }},
		{"cut s1-s2", func() FaultSet { return fs.Add(link12) }},
		{"kill s2 beside the cut links", func() FaultSet { return fs.Add(sw2) }},
		{"heal s1-s2 under the dead switch", func() FaultSet { return fs.Remove(link12) }},
		{"heal s2", func() FaultSet { return fs.Remove(sw2) }},
		{"heal s2-s3", func() FaultSet { return fs.Remove(link23) }},
		{"heal the parallel pair", func() FaultSet { return fs.Remove(degr01(0)) }},
	} {
		fs = s.next()
		step(s.name, fs)
	}
	if !fs.Empty() {
		t.Fatalf("the script ends with %v active", fs.Faults())
	}

	pool := allFaults(d)
	for _, l := range pool {
		if l.Kind == Link {
			pool = append(pool, Fault{Kind: Degrade, U: l.U, V: l.V, Factor: 2}, Fault{Kind: Degrade, U: l.U, V: l.V, Factor: 5})
		}
	}
	rng := rand.New(rand.NewSource(51))
	for i := range 120 {
		if active := fs.Faults(); len(active) > 0 && (len(active) >= 4 || rng.Intn(2) == 0) {
			fs = fs.Remove(active[rng.Intn(len(active))])
		} else {
			fs = fs.Add(pool[rng.Intn(len(pool))])
		}
		step(fmt.Sprintf("random transition %d", i), fs)
	}
	if shares[0] == 0 || shares[1] == 0 {
		t.Fatalf("%d transitions labelled afresh and %d sharing: the run must take both", shares[0], shares[1])
	}
	t.Logf("%d transitions labelled afresh, %d sharing their base's labels", shares[0], shares[1])
}

// TestPlanServiceTieBreak pins PlanService's region rule below the rate.
// With the dumbbell's bridge cut, side A (s0 with hosts 2 and 3) is
// component 0 and side B (s1 with hosts 4 and 5) component 1. At equal
// intra-component rate the side with more live hosts is the region — B,
// once a host of A is dead, though its label is the higher — and at equal
// rate and equal live hosts the side with the lower label, A.
func TestPlanServiceTieBreak(t *testing.T) {
	d, hosts, switches := dumbbell(t)
	bridge := Fault{Kind: Link, U: switches[0], V: switches[1]}
	for _, c := range []struct {
		name   string
		fs     FaultSet
		w      model.Workload
		region int // the switch whose component the region is
	}{
		{"equal rate, more live hosts in B", NewFaultSet(bridge, Fault{Kind: Host, U: hosts[0]}),
			model.Workload{{Src: hosts[1], Dst: hosts[2], Rate: 7}}, switches[1]},
		{"equal rate, more live hosts in A", NewFaultSet(bridge, Fault{Kind: Host, U: hosts[3]}),
			model.Workload{{Src: hosts[1], Dst: hosts[2], Rate: 7}}, switches[0]},
		{"equal rate, equal hosts", NewFaultSet(bridge),
			model.Workload{{Src: hosts[0], Dst: hosts[1], Rate: 5}, {Src: hosts[2], Dst: hosts[3], Rate: 5}}, switches[0]},
	} {
		v, err := ApplyDelta(d, nil, c.fs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if v.components() != 2 || v.component(switches[0]) != 0 || v.component(switches[1]) != 1 {
			t.Fatalf("%s: want sides A and B labelled 0 and 1, got %d components", c.name, v.components())
		}
		if got, want := v.PlanService(c.w).Region, v.component(c.region); got != want {
			t.Fatalf("%s: region %d, want %d", c.name, got, want)
		}
	}
}
