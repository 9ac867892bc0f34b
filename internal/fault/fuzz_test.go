package fault

import (
	"math"
	"math/rand"
	"testing"

	"vnfopt/internal/graph"
	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

// allFaults enumerates every single fault the fabric admits, in
// deterministic order.
func allFaults(d *model.PPDC) []Fault {
	var out []Fault
	for _, s := range d.Topo.Switches {
		out = append(out, Fault{Kind: Switch, U: s})
	}
	for _, h := range d.Topo.Hosts {
		out = append(out, Fault{Kind: Host, U: h})
	}
	g := d.Topo.Graph
	for u := 0; u < g.Order(); u++ {
		for _, e := range g.Neighbors(u) {
			if u < e.To {
				out = append(out, Fault{Kind: Link, U: u, V: e.To})
			}
		}
	}
	return out
}

// apspEqual compares two APSP oracles bit-for-bit over all pairs: dist
// matrices by float bits and Pred entry-for-entry. Pred is derived from
// the costs and the graph on read, so on canonical matrices it follows
// from the cost bits; it is compared for the matrices that are not,
// where it reads a search, so a path that finds the right costs along a
// different trace still fails.
func apspEqual(t *testing.T, d *model.PPDC, a, b *View) {
	t.Helper()
	n := d.Topo.Graph.Order()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			x := a.PPDC().APSP.Cost(u, v)
			y := b.PPDC().APSP.Cost(u, v)
			if math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("APSP[%d][%d]: %v (%#x) != %v (%#x)",
					u, v, x, math.Float64bits(x), y, math.Float64bits(y))
			}
			if pa, pb := a.PPDC().APSP.Pred(u, v), b.PPDC().APSP.Pred(u, v); pa != pb {
				t.Fatalf("prev[%d][%d]: %d != %d", u, v, pa, pb)
			}
		}
	}
}

// FuzzFaultHealRoundTrip drives a random inject/heal sequence and checks
// the reconstruction invariants:
//
//   - the view of the surviving fault set is identical whether built by
//     Apply or by the always-reconstruct Rebuild path;
//   - healing everything reproduces the pristine APSP bit-for-bit
//     (Rebuild over an empty set vs the model's own matrix);
//   - reachability and cost agree: a live pair has a finite distance
//     exactly when it is in one component.
func FuzzFaultHealRoundTrip(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{2, 4, 6, 3})
	f.Add([]byte{1, 1, 2, 2, 9, 9, 40, 41, 200, 201})
	topo := topology.MustFatTree(4, nil)
	d := model.MustNew(topo, model.Options{})
	cand := allFaults(d)

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		fs := FaultSet{}
		for _, b := range ops {
			if b&1 == 0 {
				fs = fs.Add(cand[int(b>>1)%len(cand)])
			} else if fs.Len() > 0 {
				active := fs.Faults()
				fs = fs.Remove(active[int(b>>1)%len(active)])
			}
		}

		v, err := Apply(d, fs)
		if err != nil {
			t.Fatalf("fault set built from candidates must validate: %v", err)
		}
		apspEqual(t, d, v, Rebuild(d, fs))

		// Reachability ⇔ finite cost over every pair of live vertices.
		n := d.Topo.Graph.Order()
		for u := 0; u < n; u++ {
			for w := u + 1; w < n; w++ {
				if v.Dead(u) || v.Dead(w) {
					continue
				}
				finite := !math.IsInf(v.PPDC().APSP.Cost(u, w), 1)
				if finite != v.reachable(u, w) {
					t.Fatalf("pair (%d,%d): finite=%v reachable=%v", u, w, finite, v.reachable(u, w))
				}
			}
		}

		// Heal everything: the reconstruction path reproduces the pristine
		// matrix bit-for-bit, with one connected component and no dead
		// vertices.
		healed := Rebuild(d, FaultSet{})
		pristine, err := Apply(d, FaultSet{})
		if err != nil {
			t.Fatal(err)
		}
		apspEqual(t, d, healed, pristine)
		if healed.components() != 1 {
			t.Fatalf("healed fabric has %d components", healed.components())
		}
		for u := 0; u < n; u++ {
			if healed.Dead(u) {
				t.Fatalf("healed fabric reports vertex %d dead", u)
			}
		}
	})
}

// viewEqual compares two views of the same fault set completely: APSP
// matrix bit-for-bit, dead masks, and component labelling.
func viewEqual(t *testing.T, d *model.PPDC, a, b *View) {
	t.Helper()
	apspEqual(t, d, a, b)
	sameLabels(t, d, a, b)
}

// sameLabels compares two views' dead masks and component labelling.
func sameLabels(t *testing.T, d *model.PPDC, a, b *View) {
	t.Helper()
	n := d.Topo.Graph.Order()
	if a.components() != b.components() {
		t.Fatalf("components: %d != %d", a.components(), b.components())
	}
	for u := 0; u < n; u++ {
		if a.Dead(u) != b.Dead(u) {
			t.Fatalf("dead[%d]: %v != %v", u, a.Dead(u), b.Dead(u))
		}
		if a.component(u) != b.component(u) {
			t.Fatalf("comp[%d]: %d != %d", u, a.component(u), b.component(u))
		}
	}
}

// deltaStep takes the view of fs from prev through ApplyDelta and pins it
// to the full rebuild. The delta shares with prev's matrix every block it
// does not change, so prev is pinned too, after the delta, to the rebuild
// of its own fault set: a write through a shared block would corrupt it —
// in the end the pristine matrix the last heal returns to.
func deltaStep(t *testing.T, d *model.PPDC, prev *View, fs FaultSet) *View {
	t.Helper()
	inc, err := ApplyDelta(d, prev, fs)
	if err != nil {
		t.Fatalf("fault set built from candidates must validate: %v", err)
	}
	viewEqual(t, d, inc, Rebuild(d, fs))
	apspEqual(t, d, prev, Rebuild(d, prev.Faults()))
	return inc
}

// FuzzIncrementalAPSP is the differential fuzz for the incremental APSP
// layer: a random inject/heal sequence is applied twice — once through
// the delta path (each view built from the previous view via ApplyDelta,
// so repaired rows chain across events) and once through the full
// Rebuild — and every intermediate view must match: same dead mask, same
// component labels, and every APSP row read bit-identical in dist and
// prev to AllPairsSequential over the fault set's graph. The model is
// fresh per input, so its matrix starts with no row built; before each
// delta the input picks which rows of the current view are read, so a
// derived matrix mixes repaired rows, rows left unbuilt and rows built
// later over its own graph. A row read before a delta is read again after
// it: the delta shares blocks with its parent, and a write through one
// would show there. A cost cache rides along the delta chain as the
// engine carries it, each one derived from the last with OnFabric on the
// view's serving model, and must hold what a fresh cache there holds.
// Once every fault is healed, the pristine matrix is read in full.
func FuzzIncrementalAPSP(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{2, 4, 6, 3})
	f.Add([]byte{8, 8, 1, 3, 5, 7})
	f.Add([]byte{1, 1, 2, 2, 9, 9, 40, 41, 200, 201})
	f.Add([]byte{0, 2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 11})
	topo := topology.MustFatTree(4, nil)
	cand := allFaults(model.MustNew(topo, model.Options{}))
	rng := rand.New(rand.NewSource(5))
	w := make(model.Workload, 24)
	for i := range w {
		w[i] = model.VMPair{Src: topo.Hosts[rng.Intn(len(topo.Hosts))], Dst: topo.Hosts[rng.Intn(len(topo.Hosts))], Rate: float64(rng.Intn(4))}
	}
	n := topo.Graph.Order()

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		d := model.MustNew(topo, model.Options{})
		fs := FaultSet{}
		prev, err := ApplyDelta(d, nil, fs)
		if err != nil {
			t.Fatal(err)
		}
		prevWant := graph.AllPairsSequential(topo.Graph)
		cache := d.NewWorkloadCache(w)
		cache.UnitEndpointCosts()
		cache.SwitchCosts()
		var read []int
		step := func(b byte) {
			// The rows this input reads: every stride-th from an offset.
			read = read[:0]
			for u := int(b) % 5; u < n; u += 1 + int(b>>4)%7 {
				read = append(read, u)
				rowsEqual(t, prev.PPDC().APSP, prevWant, u)
			}
			inc, err := ApplyDelta(d, prev, fs)
			if err != nil {
				t.Fatalf("fault set built from candidates must validate: %v", err)
			}
			rebuilt := Rebuild(d, fs)
			sameLabels(t, d, inc, rebuilt)
			for _, u := range read {
				rowsEqual(t, prev.PPDC().APSP, prevWant, u)
			}
			prev, prevWant = inc, graph.AllPairsSequential(rebuilt.PPDC().Topo.Graph)
			plan := prev.PlanService(w)
			cache = cache.OnFabric(plan.PPDC, plan.Served)
			cacheEqual(t, cache, plan.PPDC.NewWorkloadCache(plan.Served))
		}
		for _, b := range ops {
			if b&1 == 0 {
				fs = fs.Add(cand[int(b>>1)%len(cand)])
			} else if fs.Len() > 0 {
				active := fs.Faults()
				fs = fs.Remove(active[int(b>>1)%len(active)])
			}
			step(b)
		}
		// Drain the surviving faults one at a time: every heal keeps the
		// incremental chain pinned to the rebuild, and the empty tail is
		// the pristine matrix again.
		for fs.Len() > 0 {
			fs = fs.Remove(fs.Faults()[0])
			step(byte(fs.Len()))
		}
		for u := range n {
			rowsEqual(t, prev.PPDC().APSP, prevWant, u)
		}
		apspEqual(t, d, prev, Rebuild(d, FaultSet{}))
	})
}

// rowsEqual compares row u of two APSP matrices bit-for-bit, dist and
// Pred (see apspEqual), reading (so building) it in both.
func rowsEqual(t *testing.T, a, b *graph.APSP, u int) {
	t.Helper()
	for v := range a.Order() {
		if x, y := a.Cost(u, v), b.Cost(u, v); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("APSP[%d][%d]: %v (%#x) != %v (%#x)", u, v, x, math.Float64bits(x), y, math.Float64bits(y))
		}
		if pa, pb := a.Pred(u, v), b.Pred(u, v); pa != pb {
			t.Fatalf("prev[%d][%d]: %d != %d", u, v, pa, pb)
		}
	}
}

// cacheEqual compares a derived cost cache with a fresh one bit for bit:
// both endpoint pairs, the switch closure and its floor, Λ and the
// direct cost.
func cacheEqual(t *testing.T, got, want *model.WorkloadCache) {
	t.Helper()
	same := func(what string, a, b []float64) {
		t.Helper()
		for v := range b {
			if math.Float64bits(a[v]) != math.Float64bits(b[v]) {
				t.Fatalf("derived cache %s[%d] = %v, fresh %v", what, v, a[v], b[v])
			}
		}
	}
	in, eg := got.EndpointCosts()
	inF, egF := want.EndpointCosts()
	same("ingress", in, inF)
	same("egress", eg, egF)
	in, eg = got.UnitEndpointCosts()
	inF, egF = want.UnitEndpointCosts()
	same("unit ingress", in, inF)
	same("unit egress", eg, egF)
	cost, floor := got.SwitchCosts()
	costF, floorF := want.SwitchCosts()
	if len(cost) != len(costF) {
		t.Fatalf("derived closure over %d switches, fresh %d", len(cost), len(costF))
	}
	for i := range costF {
		same("closure row", cost[i], costF[i])
	}
	for _, x := range [][2]float64{{floor, floorF}, {got.TotalRate(), want.TotalRate()}, {got.CommCost(nil), want.CommCost(nil)}} {
		if math.Float64bits(x[0]) != math.Float64bits(x[1]) {
			t.Fatalf("derived cache floor/Λ/direct %v, fresh %v", x[0], x[1])
		}
	}
}

// permute calls fn with every permutation of faults.
func permute(faults []Fault, fn func([]Fault)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(faults) {
			fn(faults)
			return
		}
		for i := k; i < len(faults); i++ {
			faults[k], faults[i] = faults[i], faults[k]
			rec(k + 1)
			faults[k], faults[i] = faults[i], faults[k]
		}
	}
	rec(0)
}

// TestHealOrderPermutationRelabelling splits a linear fabric into three
// pieces and heals the faults in every possible order, checking after
// each heal — along the incremental ApplyDelta chain — that a healed
// vertex rejoins the surviving component exactly as a full Rebuild says
// it should: identical component labels, dead masks, APSP matrices, and
// reachability across the re-merged cut.
func TestHealOrderPermutationRelabelling(t *testing.T) {
	topo, err := topology.Linear(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := model.MustNew(topo, model.Options{})
	// Vertices: host 0, switches 1..6, host 7. Killing switches 2 and 5
	// plus link {3,4} yields components {0,1}, {3}, {4}, {6,7} with two
	// dead vertices; each heal order re-merges them along a different
	// sequence of splits.
	faults := []Fault{
		{Kind: Switch, U: 2},
		{Kind: Switch, U: 5},
		{Kind: Link, U: 3, V: 4},
	}
	full := NewFaultSet(faults...)
	base, err := Apply(d, full)
	if err != nil {
		t.Fatal(err)
	}
	if base.components() < 3 {
		t.Fatalf("fault set should split the chain, got %d components", base.components())
	}

	permute(faults, func(order []Fault) {
		fs := full
		prev := base
		for _, f := range order {
			fs = fs.Remove(f)
			inc, err := ApplyDelta(d, prev, fs)
			if err != nil {
				t.Fatalf("heal %s: %v", f, err)
			}
			viewEqual(t, d, inc, Rebuild(d, fs))
			// A healed switch must be alive and share a component with at
			// least one live neighbor in the filtered fabric.
			if f.Kind != Link {
				if inc.Dead(f.U) {
					t.Fatalf("healed vertex %d still dead", f.U)
				}
				joined := false
				for _, e := range inc.PPDC().Topo.Graph.Neighbors(f.U) {
					if inc.reachable(f.U, e.To) {
						joined = true
					}
				}
				if !joined && len(inc.PPDC().Topo.Graph.Neighbors(f.U)) > 0 {
					t.Fatalf("healed vertex %d rejoined no component", f.U)
				}
			}
			prev = inc
		}
		if prev.components() != 1 || prev.Degraded() {
			t.Fatalf("full heal left %d components (degraded=%v)", prev.components(), prev.Degraded())
		}
	})
}

// TestPlanServicePartitionProperties is the partition-detection property
// test: across seeded random fault sets, every unserved flow's reason
// must be independently verifiable, and every served flow must reach
// every switch of the service region at finite cost.
func TestPlanServicePartitionProperties(t *testing.T) {
	topo := topology.MustFatTree(4, nil)
	d := model.MustNew(topo, model.Options{})
	cand := allFaults(d)
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := FaultSet{}
		for k := rng.Intn(6); k > 0; k-- {
			fs = fs.Add(cand[rng.Intn(len(cand))])
		}
		v, err := Apply(d, fs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		w := make(model.Workload, 0, 16)
		hosts := topo.Hosts
		for k := 0; k < 16; k++ {
			w = append(w, model.VMPair{
				Src:  hosts[rng.Intn(len(hosts))],
				Dst:  hosts[rng.Intn(len(hosts))],
				Rate: 1 + rng.Float64()*9,
			})
		}
		plan := v.PlanService(w)

		unserved := make(map[int]UnservedReason, len(plan.Unserved))
		for _, u := range plan.Unserved {
			unserved[u.Flow] = u.Reason
		}
		for i, fl := range w {
			reason, excluded := unserved[i]
			if excluded == plan.Servable[i] {
				t.Fatalf("seed %d flow %d: servable mask and unserved report disagree", seed, i)
			}
			switch {
			case v.Dead(fl.Src) || v.Dead(fl.Dst):
				if reason != ReasonDeadEndpoint {
					t.Fatalf("seed %d flow %d: want dead_endpoint, got %q", seed, i, reason)
				}
			case v.component(fl.Src) != v.component(fl.Dst):
				if reason != ReasonPartitioned {
					t.Fatalf("seed %d flow %d: want partitioned, got %q", seed, i, reason)
				}
			case plan.Region == -1 || v.component(fl.Src) != plan.Region:
				if reason != ReasonOutsideRegion {
					t.Fatalf("seed %d flow %d: want outside_region, got %q", seed, i, reason)
				}
			default:
				if excluded {
					t.Fatalf("seed %d flow %d: servable flow excluded as %q", seed, i, reason)
				}
			}
		}
		// Served flows never see an infinite cost to any region switch.
		if err := plan.CheckCosts(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The served workload mirrors the mask, in order.
		if len(plan.Served) != len(plan.ServedIndex) {
			t.Fatalf("seed %d: served/index length mismatch", seed)
		}
		for k, idx := range plan.ServedIndex {
			if !plan.Servable[idx] || plan.Served[k] != w[idx] {
				t.Fatalf("seed %d: served[%d] does not match flow %d", seed, k, idx)
			}
		}
	}
}

// FuzzWeightDeltaAPSP is the weight-delta counterpart of
// FuzzIncrementalAPSP: a random chained sequence of link degrades
// (re-weights at assorted factors, including replacing an active
// degrade's factor), hard link failures, and heals — so weight deltas,
// removal deltas, and mixed transitions interleave — applied once
// through the incremental ApplyDelta chain and once through the full
// Rebuild, with every intermediate view pinned bit-for-bit: dist AND
// prev matrices, dead masks, component labels.
func FuzzWeightDeltaAPSP(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 4, 8, 12})
	f.Add([]byte{0, 1, 2, 3, 16, 17, 18, 19})
	f.Add([]byte{0, 2, 40, 42, 3, 7, 80, 81, 200, 201, 13, 14})
	topo := topology.MustFatTree(4, nil)
	d := model.MustNew(topo, model.Options{})
	var links []Fault
	g := d.Topo.Graph
	for u := 0; u < g.Order(); u++ {
		for _, e := range g.Neighbors(u) {
			if u < e.To {
				links = append(links, Fault{Kind: Link, U: u, V: e.To})
			}
		}
	}
	// Factors > 1 and < 1 both appear so weight increases and decreases
	// are exercised, plus re-degrading at a different factor.
	factors := []float64{0.25, 0.5, 1.5, 2, 3, 8}

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 40 {
			ops = ops[:40]
		}
		fs := FaultSet{}
		prev, err := ApplyDelta(d, nil, fs)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range ops {
			link := links[int(b>>2)%len(links)]
			switch b & 3 {
			case 0, 1:
				// Degrade (or re-degrade) the link; the factor varies with
				// both the byte and the position so chained replacements of
				// the same link pick different multipliers.
				fct := factors[(int(b>>2)+i)%len(factors)]
				fs = fs.Add(Fault{Kind: Degrade, U: link.U, V: link.V, Factor: fct})
			case 2:
				// Hard-fail the link. An active degrade on it stays in the
				// set and reapplies when the link heals.
				fs = fs.Add(link)
			case 3:
				if fs.Len() > 0 {
					active := fs.Faults()
					fs = fs.Remove(active[int(b>>2)%len(active)])
				}
			}
			prev = deltaStep(t, d, prev, fs)
		}
		// Drain: heal everything one fault at a time along the chain, then
		// the empty set must be the pristine matrix again.
		for fs.Len() > 0 {
			fs = fs.Remove(fs.Faults()[0])
			prev = deltaStep(t, d, prev, fs)
		}
		apspEqual(t, d, prev, Rebuild(d, FaultSet{}))
	})
}
