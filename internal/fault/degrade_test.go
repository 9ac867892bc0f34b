package fault

import (
	"math"
	"strings"
	"testing"

	"vnfopt/internal/graph"
	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

func degradeModel(t *testing.T) *model.PPDC {
	t.Helper()
	topo := topology.MustFatTree(4, nil)
	return model.MustNew(topo, model.Options{})
}

// firstLink returns the lowest (u, v) link of the fabric.
func firstLink(d *model.PPDC) (int, int) {
	g := d.Topo.Graph
	for u := 0; u < g.Order(); u++ {
		for _, e := range g.Neighbors(u) {
			if u < e.To {
				return u, e.To
			}
		}
	}
	panic("no links")
}

func TestDegradeFaultSetSemantics(t *testing.T) {
	d := degradeModel(t)
	u, v := firstLink(d)
	deg := Fault{Kind: Degrade, U: u, V: v, Factor: 2}

	fs := NewFaultSet(deg)
	if !fs.Contains(deg) || !fs.Active(deg) {
		t.Fatal("injected degrade not active")
	}
	// Contains is exact (factor included); Active matches by identity.
	other := Fault{Kind: Degrade, U: v, V: u, Factor: 3}
	if fs.Contains(other) {
		t.Fatal("Contains matched a different factor")
	}
	if !fs.Active(other) {
		t.Fatal("Active must ignore the factor")
	}
	// Add replaces the active degrade on the same link.
	fs2 := fs.Add(other)
	if fs2.Len() != 1 {
		t.Fatalf("re-degrade stacked: %d faults active", fs2.Len())
	}
	if !fs2.Contains(Fault{Kind: Degrade, U: u, V: v, Factor: 3}) {
		t.Fatal("replacement factor not recorded")
	}
	// Remove heals by identity, without the factor.
	fs3 := fs2.Remove(Fault{Kind: Degrade, U: u, V: v})
	if fs3.Len() != 0 {
		t.Fatalf("identity heal left %d faults", fs3.Len())
	}
	// A degrade and a hard link fault on the same endpoints are distinct.
	link := Fault{Kind: Link, U: u, V: v}
	both := NewFaultSet(deg, link)
	if both.Len() != 2 {
		t.Fatalf("degrade and link collapsed: %d faults", both.Len())
	}
	if !both.Remove(link).Contains(deg) {
		t.Fatal("healing the link must not heal the degrade")
	}
	if both.Remove(Fault{Kind: Degrade, U: u, V: v}).Contains(deg) {
		t.Fatal("healing the degrade left it active")
	}
}

func TestDegradeValidate(t *testing.T) {
	d := degradeModel(t)
	u, v := firstLink(d)
	for _, tc := range []struct {
		f    Fault
		want string
	}{
		{Fault{Kind: Degrade, U: u, V: v, Factor: 0}, "must be finite and > 0"},
		{Fault{Kind: Degrade, U: u, V: v, Factor: -1}, "must be finite and > 0"},
		{Fault{Kind: Degrade, U: u, V: v, Factor: math.Inf(1)}, "must be finite and > 0"},
		{Fault{Kind: Degrade, U: u, V: v, Factor: math.NaN()}, "must be finite and > 0"},
		// Finite factors whose degraded reach is not: at the largest, two
		// host uplinks served a flow between the hosts at +Inf.
		{Fault{Kind: Degrade, U: u, V: v, Factor: math.MaxFloat64}, "overflows"},
		{Fault{Kind: Degrade, U: u, V: v, Factor: math.MaxFloat64 / 8}, "overflows"},
		{Fault{Kind: Degrade, U: 0, V: 1, Factor: 2}, "no link"},
		{Fault{Kind: Link, U: u, V: v, Factor: 2}, "only valid on degrade"},
		{Fault{Kind: Switch, U: d.Topo.Switches[0], Factor: 0.5}, "only valid on degrade"},
	} {
		err := tc.f.Validate(d)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want %q", tc.f, err, tc.want)
		}
	}
	if err := (Fault{Kind: Degrade, U: v, V: u, Factor: 2.5}).Validate(d); err != nil {
		t.Fatalf("valid degrade rejected: %v", err)
	}
}

// TestDegradeViewWeights: a degrade re-prices shortest paths without
// disconnecting anything, and healing it restores the pristine matrix
// bit-for-bit along both the rebuild and the incremental path.
func TestDegradeViewWeights(t *testing.T) {
	d := degradeModel(t)
	u, v := firstLink(d)
	deg := Fault{Kind: Degrade, U: u, V: v, Factor: 4}

	view, err := Apply(d, NewFaultSet(deg))
	if err != nil {
		t.Fatal(err)
	}
	if view.components() != 1 {
		t.Fatalf("degrade partitioned the fabric: %d components", view.components())
	}
	for x := 0; x < d.Topo.Graph.Order(); x++ {
		if view.Dead(x) {
			t.Fatalf("degrade killed vertex %d", x)
		}
	}
	// The degraded edge's direct cost is exactly factor× pristine.
	pw := d.Topo.Graph.EdgeWeight(u, v)
	if got := fabricWeight(view.PPDC(), u, v); got != pw*4 {
		t.Fatalf("degraded edge weight %v, want %v", got, pw*4)
	}
	// No pair gets cheaper, and the degraded view matches Rebuild.
	n := d.Topo.Graph.Order()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if view.PPDC().APSP.Cost(a, b) < d.APSP.Cost(a, b) {
				t.Fatalf("degrade made pair (%d,%d) cheaper", a, b)
			}
		}
	}
	viewEqual(t, d, view, Rebuild(d, NewFaultSet(deg)))

	// Heal along the incremental chain: pristine bits again.
	healed, err := ApplyDelta(d, view, FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := Apply(d, FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	apspEqual(t, d, healed, pristine)
}

// TestDegradeRemoveHealPermutations is the coverage for composing
// re-weights with removals in any order: a link is degraded, hard-failed, and both faults healed,
// with every interleaving of the four transitions driven through the
// incremental ApplyDelta chain and pinned against the full Rebuild at
// each step. While the link is down the degrade is latent; healing the
// link with the degrade still active must resurface the degraded weight
// (a restore at the effective cost), and healing the degrade while the
// link is down must change nothing until the link returns.
func TestDegradeRemoveHealPermutations(t *testing.T) {
	d := degradeModel(t)
	u, v := firstLink(d)
	deg := Fault{Kind: Degrade, U: u, V: v, Factor: 3}
	link := Fault{Kind: Link, U: u, V: v}

	type op struct {
		name string
		app  func(FaultSet) FaultSet
	}
	ops := []op{
		{"degrade", func(fs FaultSet) FaultSet { return fs.Add(deg) }},
		{"cut", func(fs FaultSet) FaultSet { return fs.Add(link) }},
		{"heal-degrade", func(fs FaultSet) FaultSet { return fs.Remove(Fault{Kind: Degrade, U: u, V: v}) }},
		{"heal-link", func(fs FaultSet) FaultSet { return fs.Remove(link) }},
	}
	idx := []int{0, 1, 2, 3}
	var orders [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == len(idx) {
			orders = append(orders, append([]int(nil), idx...))
			return
		}
		for i := k; i < len(idx); i++ {
			idx[k], idx[i] = idx[i], idx[k]
			rec(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	rec(0)

	pristine, err := Apply(d, FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range orders {
		fs := FaultSet{}
		prev := pristine
		for _, oi := range order {
			fs = ops[oi].app(fs)
			inc, err := ApplyDelta(d, prev, fs)
			if err != nil {
				t.Fatalf("order %v at %s: %v", order, ops[oi].name, err)
			}
			viewEqual(t, d, inc, Rebuild(d, fs))
			prev = inc
		}
	}

	// The canonical composition story stated explicitly: degrade → cut →
	// heal-link must resurface the degraded (not pristine) weight.
	fs := NewFaultSet(deg, link)
	mid, err := Apply(d, fs)
	if err != nil {
		t.Fatal(err)
	}
	if fabricWeight(mid.PPDC(), u, v) < graph.Inf {
		t.Fatal("cut link still present under degrade+cut")
	}
	back, err := ApplyDelta(d, mid, fs.Remove(link))
	if err != nil {
		t.Fatal(err)
	}
	pw := d.Topo.Graph.EdgeWeight(u, v)
	if got := fabricWeight(back.PPDC(), u, v); got != pw*3 {
		t.Fatalf("healed link came back at weight %v, want degraded %v", got, pw*3)
	}
}

// fabricWeight returns the least weight of the arcs u→v of d's fabric,
// the CSR its APSP is over: +Inf where none is live. It reads a view's
// degraded weights whichever form the view takes, a weight vector over
// the pristine fabric or a filtered clone.
func fabricWeight(d *model.PPDC, u, v int) float64 {
	least := graph.Inf
	d.APSP.Fabric().ForEachSlot(func(_, a, b int, w float64) {
		if a == u && b == v {
			least = min(least, w)
		}
	})
	return least
}
