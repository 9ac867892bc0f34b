package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// apspBitEqual fails unless a and b are bit-identical over dist and agree
// on Pred. It reads, so builds, every row of both.
func apspBitEqual(t *testing.T, a, b *APSP) {
	t.Helper()
	if a.n != b.n {
		t.Fatalf("order %d != %d", a.n, b.n)
	}
	for s := range a.rows {
		rowBitEqual(t, a, b, s)
	}
}

// rowBitEqual fails unless row s of a and b are bit-identical over dist
// and agree on Pred. It reads, so builds, row s of both. Pred is derived
// from the costs and the graph, so on canonical matrices over one graph
// it follows from the cost bits; the comparison is kept for the matrices
// that are not, whose Pred reads a search (TestPredMatchesDijkstraTrace
// holds both kinds to Graph.Dijkstra).
func rowBitEqual(t *testing.T, a, b *APSP, s int) {
	t.Helper()
	ra, rb := a.Row(s), b.Row(s)
	for v := 0; v < a.n; v++ {
		if da, db := ra.Cost(v), rb.Cost(v); math.Float64bits(da) != math.Float64bits(db) {
			t.Fatalf("dist[%d][%d]: %v (%#x) != %v (%#x)",
				s, v, da, math.Float64bits(da), db, math.Float64bits(db))
		}
		if pa, pb := a.Pred(s, v), b.Pred(s, v); pa != pb {
			t.Fatalf("prev[%d][%d]: %d != %d", s, v, pa, pb)
		}
	}
}

// sameTables reports whether two rows are one: the same block table, not
// a copy of it.
func sameTables(a, b Row) bool { return &a.dist[0] == &b.dist[0] }

// filterEdges returns g without the edges in the down-set.
func filterEdges(g *Graph, down map[[2]int]bool) *Graph {
	return g.CloneMapped(downMap(down))
}

// downMap is the CloneMapped function that drops the edges in the
// down-set and keeps every other at its weight.
func downMap(down map[[2]int]bool) func(u, v int, w float64) (float64, bool) {
	return func(u, v int, w float64) (float64, bool) {
		return w, !down[[2]int{min(u, v), max(u, v)}]
	}
}

// weighed is g.CloneMapped(mapEdge) as a weight vector over c = g.freeze():
// the weight mapEdge gives an arc it keeps, +Inf on one it drops.
func weighed(c *CSR, mapEdge func(u, v int, w float64) (float64, bool)) []float64 {
	wt := make([]float64, c.NumSlots())
	c.ForEachSlot(func(slot, u, v int, w float64) {
		wt[slot] = Inf
		if nw, ok := mapEdge(u, v, w); ok {
			wt[slot] = nw
		}
	})
	return wt
}

// TestApplyDeltasRandomSequence drives random fail/restore sequences over
// random connected graphs and pins Reweigh bit-for-bit against a full
// AllPairs rebuild of the filtered graph, at several worker counts. A pair
// of parallel edges fails and comes back together: each of its arcs is a
// change of its own.
func TestApplyDeltasRandomSequence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(24)
		g := randomConnectedGraph(rng, n, n)
		edges := g.Edges() // sorted: a pair's parallel edges are adjacent
		down := map[[2]int]bool{}
		cur := AllPairs(g)
		for step := 0; step < 8; step++ {
			for i, j := 0, 0; i < len(edges); i = j {
				for j = i + 1; j < len(edges) && edges[j].U == edges[i].U && edges[j].V == edges[i].V; j++ {
				}
				key := [2]int{edges[i].U, edges[i].V}
				switch {
				case !down[key] && rng.Intn(6) == 0:
					down[key] = true
				case down[key] && rng.Intn(3) == 0:
					delete(down, key)
				}
			}
			next := filterEdges(g, down)
			workers := []int{1, 2, 5, 0}[step%4]
			inc, dirty := cur.Reweigh(weighed(g.freeze(), downMap(down)), workers)
			full := AllPairs(next)
			apspBitEqual(t, inc, full)
			if dirty < 0 || dirty > n {
				t.Fatalf("seed %d step %d: dirty=%d out of range", seed, step, dirty)
			}
			cur = inc
		}
	}
}

// TestApplyDeltasEmptyDelta checks that a weight vector equal to the
// receiver's recomputes zero rows, shares every row with the (immutable,
// fully built) receiver rather than copying the matrix, and is over the
// vector it was handed: a weight view of the receiver's own fabric, which
// nothing re-freezes.
func TestApplyDeltasEmptyDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnectedGraph(rng, 20, 25)
	a := allPairsWorkers(g, 0)
	wt := slices.Clone(a.Fabric().wt)
	b, dirty := a.Reweigh(wt, 0)
	if &b.Fabric().wt[0] != &wt[0] || &b.Fabric().to[0] != &a.Fabric().to[0] {
		t.Fatal("the matrix is not over the receiver's fabric under the vector it was handed")
	}
	if dirty != 0 {
		t.Fatalf("no-op delta recomputed %d rows", dirty)
	}
	apspBitEqual(t, a, b)
	for s := range a.rows {
		if !sameTables(a.rows[s], b.rows[s]) {
			t.Fatalf("no-op delta copied row %d instead of sharing it", s)
		}
	}
}

// TestApplyDeltasDisconnects checks a deletion that splits the graph and
// the restoration that heals it, including the Inf bookkeeping. The
// parent is fully built, so every row is the delta's to repair or drop.
func TestApplyDeltasDisconnects(t *testing.T) {
	// 0-1-2   3-4-5 joined by bridge 2-3.
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	a := allPairsWorkers(g, 0)
	down := map[[2]int]bool{{2, 3}: true}
	cut := filterEdges(g, down)
	b, dirty := a.Reweigh(weighed(a.Fabric(), downMap(down)), 1)
	if dirty != 6 {
		// Every source's tree crosses the bridge.
		t.Fatalf("bridge cut dirtied %d sources, want 6", dirty)
	}
	// The cut leaves the bridge's ends 2 and 3 with one edge each: their
	// rows are left unbuilt, and built on first read below.
	for s := range 6 {
		if b.Built(s) == (s == 2 || s == 3) {
			t.Fatalf("row %d built=%v after the cut, want rows 2 and 3 unbuilt and the rest repaired", s, b.Built(s))
		}
	}
	apspBitEqual(t, b, AllPairs(cut))
	if !math.IsInf(b.Cost(0, 5), 1) {
		t.Fatalf("cut bridge still reports cost %v", b.Cost(0, 5))
	}
	c, dirty := b.Reweigh(a.Fabric().wt, 1)
	apspBitEqual(t, c, a)
	if dirty != 6 {
		t.Fatalf("bridge heal dirtied %d sources, want 6", dirty)
	}
}

// TestApplyDeltasSparseDirtySet: removing an edge that only provides an
// equal-cost alternate route must not dirty sources whose trees picked
// the other route.
func TestApplyDeltasSparseDirtySet(t *testing.T) {
	// Diamond 0-1-3 / 0-2-3 with unit weights: each source's tree keeps
	// exactly one of the two equal-cost routes to the far corner.
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 3, 1)
	a := AllPairs(g)
	// The 0-3 trees pick exactly one of the equal-cost routes (via 1,
	// by the deterministic tie-break). Removing the unused edge {2,3}
	// must leave sources 0 and 1 clean only if their trees avoid it.
	down := map[[2]int]bool{{2, 3}: true}
	cut := filterEdges(g, down)
	b, dirty := a.Reweigh(weighed(a.Fabric(), downMap(down)), 1)
	apspBitEqual(t, b, AllPairs(cut))
	if dirty >= 4 {
		t.Fatalf("equal-cost alternate removal dirtied all %d sources", dirty)
	}
}

// TestCostMatrixContiguous asserts the satellite guarantee: the rows of
// the returned matrix alias one contiguous row-major buffer (two
// allocations per call), with values unchanged.
func TestCostMatrixContiguous(t *testing.T) {
	a := AllPairs(line(5))
	keep := []int{0, 4, 2}
	if allocs := testing.AllocsPerRun(50, func() { a.CostMatrix(keep) }); allocs > 2 {
		t.Fatalf("CostMatrix allocated %v times per call, want <= 2", allocs)
	}
	m := a.CostMatrix(keep)
	k := len(keep)
	for i := 1; i < k; i++ {
		// Row i-1 extended by one element must land on row i's first cell.
		if &m[i-1][:k+1][k] != &m[i][0] {
			t.Fatalf("rows %d and %d are not back-to-back in one buffer", i-1, i)
		}
	}
	for i, u := range keep {
		for j, v := range keep {
			if m[i][j] != a.Cost(u, v) {
				t.Fatalf("m[%d][%d]=%v want %v", i, j, m[i][j], a.Cost(u, v))
			}
		}
	}
}

// randomSimpleGraph builds a connected graph with no parallel edges and
// small integer weights, so equal-cost ties (the tie-flip cases) occur
// constantly.
func randomSimpleGraph(rng *rand.Rand, n, extra int) *Graph {
	g := New(n)
	seen := map[[2]int]bool{}
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			return
		}
		seen[[2]int{u, v}] = true
		g.AddEdge(u, v, float64(1+rng.Intn(4)))
	}
	for v := 1; v < n; v++ {
		add(rng.Intn(v), v)
	}
	for i := 0; i < extra; i++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return g
}

// reweight returns a copy of g with the listed edges (u < v) carrying
// their new weights, plus the same weights as a vector over g.freeze().
func reweight(g *Graph, newWt map[[2]int]float64) (*Graph, []float64) {
	mapped := func(u, v int, w float64) (float64, bool) {
		if nw, ok := newWt[[2]int{min(u, v), max(u, v)}]; ok {
			return nw, true
		}
		return w, true
	}
	return g.CloneMapped(mapped), weighed(g.freeze(), mapped)
}

// TestApplyWeightDeltasRandomSequence drives chained random re-weights —
// increases, decreases, tie-creating and tie-breaking — and pins a
// re-weight-only Reweigh bit-for-bit against the full rebuild at
// several worker counts.
func TestApplyWeightDeltasRandomSequence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		n := 12 + rng.Intn(24)
		g := randomSimpleGraph(rng, n, n)
		cur := AllPairs(g)
		for step := 0; step < 8; step++ {
			edges := g.Edges()
			newWt := map[[2]int]float64{}
			for _, e := range edges {
				if rng.Intn(4) != 0 {
					continue
				}
				if w := float64(1 + rng.Intn(4)); w != e.Weight {
					newWt[[2]int{e.U, e.V}] = w
				}
			}
			next, wt := reweight(g, newWt)
			workers := []int{1, 2, 5, 0}[step%4]
			inc, dirty := cur.Reweigh(wt, workers)
			apspBitEqual(t, inc, AllPairs(next))
			if dirty < 0 || dirty > n {
				t.Fatalf("seed %d step %d: dirty=%d out of range", seed, step, dirty)
			}
			g, cur = next, inc
		}
	}
}

// TestApplyWeightDeltasIncreaseNonTreeClean: raising the cost of an edge
// no shortest-path tree uses must recompute zero rows and share every
// row with the receiver.
func TestApplyWeightDeltasIncreaseNonTreeClean(t *testing.T) {
	// Diamond 0-1-3 / 0-2-3: the deterministic tie-break routes every
	// tree through vertex 1, leaving {2,3} a pure alternate.
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 3, 1)
	a := allPairsWorkers(g, 0)
	for _, s := range []int{0, 1} {
		if a.Pred(s, 3) == 2 || a.Pred(s, 2) == 3 {
			t.Fatalf("fixture assumption broken: source %d routes through {2,3}", s)
		}
	}
	next, wt := reweight(g, map[[2]int]float64{{2, 3}: 5})
	b, dirty := a.Reweigh(wt, 1)
	apspBitEqual(t, b, AllPairs(next))
	// Only sources 2 and 3 hold {2,3} as a tree edge (their direct hop
	// to each other); every other tree routes via vertex 1 and stays
	// clean.
	if dirty != 2 {
		t.Fatalf("increase dirtied %d sources, want 2 (only the endpoints)", dirty)
	}
	for _, s := range []int{0, 1} {
		if !sameTables(b.rows[s], a.rows[s]) {
			t.Fatalf("clean row %d was copied instead of shared", s)
		}
	}
}

// TestApplyWeightDeltasDecreaseReroutes: a decrease that creates a
// strictly better route must rewire paths through it.
func TestApplyWeightDeltasDecreaseReroutes(t *testing.T) {
	// Triangle with a costly chord: 0-1 (4), 0-2 (1), 1-2 (1).
	g := New(3)
	g.AddEdge(0, 1, 4)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 2, 1)
	a := AllPairs(g)
	if a.Cost(0, 1) != 2 || a.Pred(0, 1) != 2 {
		t.Fatalf("fixture: cost(0,1)=%v pred=%d", a.Cost(0, 1), a.Pred(0, 1))
	}
	next, wt := reweight(g, map[[2]int]float64{{0, 1}: 1})
	b, dirty := a.Reweigh(wt, 1)
	apspBitEqual(t, b, AllPairs(next))
	if b.Cost(0, 1) != 1 || b.Pred(0, 1) != 0 {
		t.Fatalf("after decrease: cost(0,1)=%v pred=%d", b.Cost(0, 1), b.Pred(0, 1))
	}
	if dirty == 0 {
		t.Fatal("improving decrease recomputed zero rows")
	}
}

// TestReweighRepriceRealWeights pins the congestion re-pricing
// shape — one fixed structure whose weights are rescaled by real-valued
// factors step after step, so no two path costs tie — against AllPairs
// at several worker counts.
func TestReweighRepriceRealWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomSimpleGraph(rng, 30, 40)
	cur := AllPairs(g)
	for step := 0; step < 6; step++ {
		changed := map[[2]int]float64{}
		for _, e := range g.Edges() {
			if rng.Intn(3) == 0 {
				changed[[2]int{e.U, e.V}] = e.Weight * (1 + rng.Float64())
			}
		}
		next, wt := reweight(g, changed)
		workers := []int{1, 3, 0}[step%3]
		inc, dirty := cur.Reweigh(wt, workers)
		apspBitEqual(t, inc, AllPairs(next))
		if dirty > g.Order() {
			t.Fatalf("step %d: dirty=%d out of range", step, dirty)
		}
		g, cur = next, inc
	}
}

// TestReweighMixed drives structural and weight changes in one
// transition — the shape fault.ApplyDelta produces when a degrade and a
// removal land in the same event.
func TestReweighMixed(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		n := 10 + rng.Intn(15)
		g := randomSimpleGraph(rng, n, n)
		cur := AllPairs(g)
		fabric := g.freeze()
		down := map[[2]int]bool{}
		// curWt tracks each edge's current cost across steps, including
		// while it is down (a removed edge restores at its last cost).
		curWt := map[[2]int]float64{}
		for _, e := range g.Edges() {
			curWt[[2]int{e.U, e.V}] = e.Weight
		}
		for step := 0; step < 6; step++ {
			newWt := map[[2]int]float64{}
			for _, e := range g.Edges() {
				key := [2]int{e.U, e.V}
				switch {
				case !down[key] && rng.Intn(8) == 0:
					down[key] = true
				case down[key] && rng.Intn(3) == 0:
					delete(down, key)
				case !down[key] && rng.Intn(6) == 0:
					if w := float64(1 + rng.Intn(4)); w != curWt[key] {
						newWt[key] = w
					}
				}
			}
			for key, w := range newWt {
				curWt[key] = w
			}
			mapped := func(u, v int, _ float64) (float64, bool) {
				key := [2]int{min(u, v), max(u, v)}
				return curWt[key], !down[key]
			}
			next := g.CloneMapped(mapped)
			inc, dirty := cur.Reweigh(weighed(fabric, mapped), []int{1, 4, 0}[step%3])
			apspBitEqual(t, inc, AllPairs(next))
			if dirty < 0 || dirty > n {
				t.Fatalf("seed %d step %d: dirty=%d", seed, step, dirty)
			}
			cur = inc
		}
	}
}

// TestAPSPBlockedLayout asserts the geometry of a full build at orders on
// both sides of a block boundary: a row is ceil(n/apspBlock) blocks,
// consecutive blocks of the build are back to back in one buffer
// (row after row, the last block of each padded), every block starts on a
// cache line, and no accessor's answer depends on the padding — it is
// poisoned here, and every accessor still agrees with the sequential
// oracle.
func TestAPSPBlockedLayout(t *testing.T) {
	for _, n := range []int{1, 20, apspBlock - 1, apspBlock, apspBlock + 1, 100, 3 * apspBlock} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := randomConnectedGraph(rng, n, n)
		a := allPairsWorkers(g, 0)
		blocks := (n + apspBlock - 1) / apspBlock
		var lastD *distBlock
		for s, row := range a.rows {
			if len(row.dist) != blocks || cap(row.dist) != blocks {
				t.Fatalf("n=%d row %d: %d blocks (cap %d), want %d", n, s, len(row.dist), cap(row.dist), blocks)
			}
			for b, d := range row.dist {
				if uintptr(unsafe.Pointer(d))%64 != 0 {
					t.Fatalf("n=%d row %d block %d: %p not on a cache line", n, s, b, d)
				}
				if lastD != nil {
					if got := uintptr(unsafe.Pointer(d)) - uintptr(unsafe.Pointer(lastD)); got != unsafe.Sizeof(*d) {
						t.Fatalf("n=%d row %d block %d: %d bytes after the block before, want %d", n, s, b, got, unsafe.Sizeof(*d))
					}
				}
				lastD = d
			}
			for v := n; v < blocks*apspBlock; v++ {
				row.dist[v>>apspShift][v&apspMask] = math.NaN()
			}
		}

		want := AllPairsSequential(g)
		apspBitEqual(t, a, want)
		all := make([]int, n)
		for v := range all {
			all[v] = v
		}
		if got, w := a.Diameter(), want.Diameter(); got != w || math.IsNaN(got) {
			t.Fatalf("n=%d: Diameter %v over poisoned padding, want %v", n, got, w)
		}
		cm := a.CostMatrix(all)
		allRuns := AppendStretches(nil, all)
		for u := 0; u < n; u++ {
			acc := make([]float64, n)
			a.SumScaledCells(acc, []int{u}, []float64{2}, allRuns, nil, nil, nil)
			for v := 0; v < n; v++ {
				c := want.Cost(u, v)
				if math.Float64bits(a.Cost(u, v)) != math.Float64bits(c) || cm[u][v] != c || acc[v] != 2*c {
					t.Fatalf("n=%d (%d,%d): Cost %v, CostMatrix %v, SumScaledCells %v, want %v", n, u, v, a.Cost(u, v), cm[u][v], acc[v], c)
				}
				if a.Pred(u, v) != want.Pred(u, v) || !slices.Equal(a.Path(u, v), want.Path(u, v)) {
					t.Fatalf("n=%d (%d,%d): Pred %d Path %v, want %d %v", n, u, v,
						a.Pred(u, v), a.Path(u, v), want.Pred(u, v), want.Path(u, v))
				}
			}
		}
	}
}

// TestDeltaCopiesWhatItChanges pins that what a delta copies follows the
// cells it changes, not the matrix order. Over the k=8 fat tree (208
// vertices, 4 blocks a row) a host kill, its heal, a switch kill, a
// host-uplink re-price and a tree-popular link cut each derive a matrix,
// from a fully built parent, in which a block differs from the parent's
// only where a cell in it does: outside the rows left unbuilt (built on
// first read, one flat allocation each) every block that is not the
// parent's own holds a changed cell, and every block that holds none is
// the parent's own. The parent is untouched.
func TestDeltaCopiesWhatItChanges(t *testing.T) {
	et, switches := fatTreeEdges(8)
	host := switches + 5
	var uplink, aggCore int
	for i := range et.u {
		if et.v[i] == host {
			uplink = i
		}
		if et.u[i] < switches && et.v[i] < 16 { // agg-core links come first
			aggCore = i
		}
	}
	g := et.graph()
	cur := allPairsWorkers(g, 0)
	for _, ev := range []struct {
		name  string
		apply func()
	}{
		{"host kill", func() { et.vertexUp(host, false) }},
		{"host heal", func() { et.vertexUp(host, true) }},
		{"switch kill", func() { et.vertexUp(20, false) }},
		{"host uplink re-price", func() { et.w[uplink] = 3 }},
		{"link cut", func() { et.up[aggCore] = false }},
	} {
		ev.apply()
		next, wt := et.commit()
		want, curWant := AllPairsSequential(next), AllPairsSequential(g)
		inc, st := cur.reweigh(wt, 2)
		unbuilt := 0
		left := make([]bool, inc.n)
		for s := range left {
			left[s] = !inc.Built(s)
			if left[s] {
				unbuilt++
			}
		}
		if unbuilt != st.unbuilt {
			t.Fatalf("%s: %d rows unbuilt, the delta counts %d", ev.name, unbuilt, st.unbuilt)
		}
		apspBitEqual(t, inc, want)
		apspBitEqual(t, cur, curWant)

		copied := 0
		for s := range inc.rows {
			if left[s] {
				continue // built on read above, over next: every block its own
			}
			was, is := cur.rows[s], inc.rows[s]
			rowCopied, rowChanged := 0, 0
			for b := range is.dist {
				lo, hi := b*apspBlock, min((b+1)*apspBlock, inc.n)
				diff := false
				for v := lo; v < hi; v++ {
					diff = diff || math.Float64bits(was.Cost(v)) != math.Float64bits(is.Cost(v))
				}
				if is.dist[b] != was.dist[b] {
					rowCopied++
				}
				if diff {
					rowChanged++
				}
			}
			if rowCopied != rowChanged {
				t.Fatalf("%s: row %d copied %d blocks, %d hold a changed cell", ev.name, s, rowCopied, rowChanged)
			}
			if rowCopied == 0 && !sameTables(was, is) {
				t.Fatalf("%s: row %d copied its table and no block", ev.name, s)
			}
			copied += rowCopied
		}
		if copied == 0 {
			t.Fatalf("%s: no block copied, the event changed nothing", ev.name)
		}
		t.Logf("%s: %d of %d blocks copied, %d rows changed, %d left unbuilt", ev.name, copied, len(inc.rows)*len(inc.rows[0].dist), st.changed, st.unbuilt)
		g, cur = next, inc
	}
}

// TestWeightDeltaObserverKinds checks that one observer hook sees fault,
// weight, and mixed deltas with the right kind labels.
func TestWeightDeltaObserverKinds(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 0, 1)
	a := AllPairs(g)
	var kinds []DeltaKind
	SetAPSPDeltaObserver(func(kind DeltaKind, vertices, dirty, workers int, _ time.Duration) {
		if vertices != 4 || dirty < 0 || dirty > 4 {
			t.Errorf("observer got vertices=%d dirty=%d", vertices, dirty)
		}
		kinds = append(kinds, kind)
	})
	defer SetAPSPDeltaObserver(nil)

	b, _ := a.Reweigh(weighed(a.Fabric(), downMap(map[[2]int]bool{{0, 1}: true})), 1)
	_, _ = b.Reweigh(a.Fabric().wt, 1)

	_, wt := reweight(g, map[[2]int]float64{{2, 3}: 3})
	_, _ = a.Reweigh(wt, 1)

	_, _ = a.Reweigh(weighed(a.Fabric(), func(u, v int, w float64) (float64, bool) {
		if u+v == 5 { // edge {2,3}
			return 3, true
		}
		return w, u+v != 1 // edge {0,1} down
	}), 1)

	want := []DeltaKind{DeltaFault, DeltaFault, DeltaWeight, DeltaMixed}
	if len(kinds) != len(want) {
		t.Fatalf("observer fired %d times, want %d: %v", len(kinds), len(want), kinds)
	}
	for i, k := range kinds {
		if k != want[i] {
			t.Fatalf("delta %d reported kind %q, want %q (all: %v)", i, k, want[i], kinds)
		}
	}
}

// TestApplyWeightDeltasPendantLeaf: re-pricing a leaf's single edge
// leaves exactly the leaf's own row — a record endpoint left with one
// edge — unbuilt, to be built on its first read, and repairs every other
// row of the fully built parent in the one cell that moves, the leaf's
// column: dist(s,hub)+w', the float expression the rebuild evaluates.
func TestApplyWeightDeltasPendantLeaf(t *testing.T) {
	// Star: hub 0 with leaves 1..4, plus a 0-5-6 path so the repaired rows
	// have interior structure too.
	g := New(7)
	for leaf := 1; leaf <= 4; leaf++ {
		g.AddEdge(0, leaf, 1)
	}
	g.AddEdge(0, 5, 1)
	g.AddEdge(5, 6, 1)
	a := allPairsWorkers(g, 0)

	next, wt := reweight(g, map[[2]int]float64{{0, 1}: 3})
	b, st := a.reweigh(wt, 1)
	if want := unbuiltRows(a, next, wt); want != 1 || st.unbuilt != want || b.Built(1) {
		t.Fatalf("pendant re-weight left %d rows unbuilt (row 1 built: %v), want %d (the leaf)", st.unbuilt, b.Built(1), want)
	}
	apspBitEqual(t, b, AllPairs(next))
	// Every other row is repaired, not shared: column 1 moved.
	for s := 0; s < 7; s++ {
		if s == 1 {
			continue
		}
		if sameTables(b.rows[s], a.rows[s]) {
			t.Fatalf("row %d shared although column 1 changed", s)
		}
		if got, want := b.Cost(s, 1), b.Cost(s, 0)+3; got != want {
			t.Fatalf("repaired dist[%d][1] = %v, want %v", s, got, want)
		}
	}

	// The same edge re-priced again from the repaired matrix (3 -> 0.5):
	// the second delta starts from the first one's derived rows.
	next2, wt2 := reweight(next, map[[2]int]float64{{0, 1}: 0.5})
	c, st := b.reweigh(wt2, 1)
	if st.unbuilt != 1 || c.Built(1) {
		t.Fatalf("chained pendant re-weight left %d rows unbuilt (row 1 built: %v), want 1", st.unbuilt, c.Built(1))
	}
	apspBitEqual(t, c, AllPairs(next2))
}

// TestApplyWeightDeltasPendantK2: both endpoints degree 1 (an isolated
// K2 component) — both rows are left unbuilt, and rows of the other
// component, which reach neither endpoint, stay shared.
func TestApplyWeightDeltasPendantK2(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 2)
	a := allPairsWorkers(g, 0)
	next, wt := reweight(g, map[[2]int]float64{{3, 4}: 7})
	b, st := a.reweigh(wt, 1)
	if want := unbuiltRows(a, next, wt); want != 2 || st.unbuilt != want || st.changed != 0 || b.Built(3) || b.Built(4) {
		t.Fatalf("K2 re-weight left %d rows unbuilt and changed %d more, want %d (rows 3 and 4) and 0", st.unbuilt, st.changed, want)
	}
	apspBitEqual(t, b, AllPairs(next))
	for s := 0; s <= 2; s++ {
		if !sameTables(b.rows[s], a.rows[s]) {
			t.Fatalf("row %d of the untouched component was not shared", s)
		}
	}
}
