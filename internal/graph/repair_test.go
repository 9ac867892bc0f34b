package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// edgeTable is a mutable multigraph for delta tests: a fixed list of
// edges, each up or down at its current weight. Its fabric is the CSR of
// every edge in table order; commit materialises the table as a Graph —
// the up edges in table order, so adjacency order is stable across steps,
// as CloneMapped keeps it — and as the weight vector over that fabric
// Reweigh takes, +Inf on a down edge.
type edgeTable struct {
	n    int
	u, v []int
	w    []float64
	up   []bool
}

func (et *edgeTable) add(u, v int, w float64) {
	et.u, et.v = append(et.u, u), append(et.v, v)
	et.w, et.up = append(et.w, w), append(et.up, true)
}

func (et *edgeTable) graph() *Graph {
	g := New(et.n)
	for i := range et.u {
		if et.up[i] {
			g.AddEdge(et.u[i], et.v[i], et.w[i])
		}
	}
	return g
}

// commit returns the current graph, the oracle's, and the table fabric's
// weight vector.
func (et *edgeTable) commit() (*Graph, []float64) {
	g := New(et.n)
	for i := range et.u {
		w := et.w[i]
		if !et.up[i] {
			w = Inf
		}
		g.AddEdge(et.u[i], et.v[i], w)
	}
	return et.graph(), g.freeze().wt
}

// pairUp sets every parallel edge between i's endpoints up or down.
func (et *edgeTable) pairUp(i int, up bool) {
	for j := range et.u {
		if et.u[j] == et.u[i] && et.v[j] == et.v[i] || et.u[j] == et.v[i] && et.v[j] == et.u[i] {
			et.up[j] = up
		}
	}
}

// vertexUp sets every edge at x up or down.
func (et *edgeTable) vertexUp(x int, up bool) {
	for j := range et.u {
		if et.u[j] == x || et.v[j] == x {
			et.up[j] = up
		}
	}
}

// FuzzRepairRows is the graph-level differential fuzz of the delta
// path: a random connected multigraph — weights from a tie-heavy integer
// palette or from the reals, or, for a negative seed, one weight on every
// link, so rows are built by layers until a delta re-prices a link, and
// again once every re-priced link is restored or cut — takes a chain of
// deltas mixing removals, restores, re-weights up and down, vertices
// isolated and re-attached, and one special weight the input chooses
// (the seeds pass 0, +Inf and 1e300, so the guard's every-row-unbuilt
// side runs, and the transitions into and out of it). Before every delta
// the input picks which rows of the current matrix are read, so a parent
// mixes repaired rows, rows built on first read over its own graph and
// rows never built; each row read must equal AllPairsSequential of that
// step's graph in dist bits and in Pred. The incremental matrices at
// workers 1 and 2 must equal AllPairsSequential(next) in full, and the
// one at workers 5, which the chain goes on from, is read only where the
// input picks; the matrix the delta was taken from must still equal the
// rebuild of its own graph in every row it had built: a write through a
// block the two share would show there. The last matrix is read in full.
func FuzzRepairRows(f *testing.F) {
	f.Add(int64(1), 2.5, []byte{0, 9, 2, 19, 1, 12, 35, 4, 5, 3})
	f.Add(int64(2), 0.0, []byte{6, 0, 14, 6, 1, 2, 22, 7})
	f.Add(int64(3), math.Inf(1), []byte{6, 8, 3, 14, 0, 9, 1, 7, 5})
	f.Add(int64(4), 1e300, []byte{6, 0, 1, 14, 8, 9, 7, 6, 132, 12, 5, 3})
	f.Add(int64(5), 0x1p-60, []byte{134, 130, 0, 4, 129, 5, 6, 11, 15})
	f.Add(int64(6), 1.0, []byte{4, 12, 132, 5, 13, 128, 129, 2, 3, 10, 11})
	f.Add(int64(-1), 2.5, []byte{0, 8, 4, 12, 1, 5, 9, 16, 7, 2, 7, 3, 0, 1})
	f.Add(int64(-2), 0.0, []byte{4, 20, 136, 0, 5, 13, 7, 6, 15, 1, 62, 7})
	f.Add(int64(-3), 1e300, []byte{130, 7, 0, 8, 16, 1, 9, 14, 6, 5, 4, 12, 7, 3})

	f.Fuzz(func(t *testing.T, seed int64, special float64, ops []byte) {
		if math.IsNaN(special) {
			return
		}
		special = math.Abs(special)
		if len(ops) > 32 {
			ops = ops[:32]
		}
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(14)
		integer := rng.Intn(2) == 0
		// No seed from before the uniform palette is negative, so each of
		// those inputs still draws the graph it always has.
		uniform := seed < 0
		weight := func() float64 {
			switch {
			case uniform && integer:
				return 1
			case uniform:
				return 0.1
			case integer:
				return float64(1 + rng.Intn(3))
			}
			return 1 + 9*rng.Float64()
		}
		et := &edgeTable{n: n}
		for v := 1; v < n; v++ {
			et.add(rng.Intn(v), v, weight())
		}
		for i := rng.Intn(2 * n); i > 0; i-- {
			// Parallel edges on purpose: a multigraph.
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				et.add(u, v, weight())
			}
		}
		// The draw that once chose how a removal was listed: kept, so an
		// input drives the edge sequence it always has.
		_ = rng.Intn(2)

		g := et.graph()
		cur, curWant := AllPairs(g), AllPairsSequential(g)
		for i, b := range ops {
			e, x := int(b>>3&15)%len(et.u), int(b>>3&15)%n
			switch b & 7 {
			case 0:
				et.pairUp(e, false)
			case 1:
				et.pairUp(e, true)
			case 2:
				if integer {
					et.w[e]++
				} else {
					et.w[e] *= 1.5
				}
			case 3:
				et.w[e] /= 2
			case 4:
				et.vertexUp(x, false)
			case 5:
				et.vertexUp(x, true)
			case 6:
				et.w[e] = special
			case 7:
				et.w[e] = float64(1 + int(b>>3&15)%3)
			}
			if b&0x80 != 0 && i < len(ops)-1 {
				continue // batch with the next op into one delta
			}
			readRows(t, cur, curWant, rng)
			next, wt := et.commit()
			want := AllPairsSequential(next)
			repairEveryRow(t, cur, curWant, wt, want)
			var inc *APSP
			dirty := -1
			for _, workers := range []int{1, 2, 5} {
				got, rows := cur.Reweigh(wt, workers)
				if workers < 5 {
					apspBitEqual(t, got, want)
				}
				builtBitEqual(t, cur, curWant)
				if dirty >= 0 && rows != dirty {
					t.Fatalf("step %d: %d rows at %d workers, %d at fewer", i, rows, workers, dirty)
				}
				inc, dirty = got, rows
			}
			cur, curWant = inc, want
		}
		apspBitEqual(t, cur, curWant)
	})
}

// readRows reads a random subset of a's rows — none, all, or each with
// even odds — and pins each to want's.
func readRows(t *testing.T, a, want *APSP, rng *rand.Rand) {
	t.Helper()
	mode := rng.Intn(4)
	for s := range a.n {
		if mode == 1 || mode > 1 && rng.Intn(2) == 0 {
			rowBitEqual(t, a, want, s)
		}
	}
}

// builtBitEqual pins every row built in a to want's, building none.
func builtBitEqual(t *testing.T, a, want *APSP) {
	t.Helper()
	for s := range a.n {
		if a.Built(s) {
			rowBitEqual(t, a, want, s)
		}
	}
}

// repairEveryRow runs the row repair on every row — the ones Reweigh
// leaves unbuilt too — and demands want's bits: the repair is a complete
// dynamic SSSP, and leaving a row unbuilt saves work, not bits. A row is
// derived from a's where a has built it, from aWant's, the rebuild of a's
// graph, elsewhere; it builds none of a's rows. The repairs write through
// copy-on-write rows, so a's built rows must come out of them equal to
// aWant's. Skipped when the guard fails, where nothing may be repaired.
func repairEveryRow(t *testing.T, a, aWant *APSP, wt []float64, want *APSP) {
	t.Helper()
	csr, ch := a.csr.WithWeights(wt), a.csr.diffWeights(wt)
	if minW, _, reach := csr.weightBounds(); !strictRelax(minW, math.Max(a.span, reach)) {
		return
	}
	bare := make([]bool, a.n)
	for x := range bare {
		bare[x] = csr.live(x) == 0
	}
	var scratch repairScratch
	for src := 0; src < a.n; src++ {
		from := aWant.Row(src)
		if a.Built(src) {
			from = a.rows[src]
		}
		r := deriveRow(from)
		csr.repairRow(src, &r, ch, bare, &scratch)
		w := want.Row(src)
		for v := 0; v < a.n; v++ {
			if math.Float64bits(r.Cost(v)) != math.Float64bits(w.Cost(v)) {
				t.Fatalf("repairRow(%d): cell %d = %v, rebuild has %v", src, v, r.Cost(v), w.Cost(v))
			}
		}
	}
	builtBitEqual(t, a, aWant)
}

// TestApplyDeltasAbsorbingLinkCut: the graph the delta leaves may be
// perfectly ordinary while the rows it starts from are not. Beyond an
// edge of weight 1e300 every unit hop is absorbed (1e300 + 1 == 1e300),
// so the vertices there sit at one distance and would vouch for each
// other in the repair's support pass once the edge is cut. The parent's
// span records that its rows are not canonical, and every row of the
// fully built parent is left unbuilt, to be built over the cut graph.
func TestApplyDeltasAbsorbingLinkCut(t *testing.T) {
	et := &edgeTable{n: 5}
	et.add(0, 1, 1e300)
	et.add(1, 2, 1)
	et.add(2, 3, 1)
	et.add(0, 4, 1)
	a := allPairsWorkers(et.graph(), 0)
	if !math.IsInf(a.span, 1) {
		t.Fatalf("span %v over an absorbing weight, want +Inf", a.span)
	}
	if a.Cost(0, 3) != 1e300 {
		t.Fatalf("fixture: cost(0,3)=%v, want the unit hops absorbed", a.Cost(0, 3))
	}
	et.pairUp(0, false)
	next, wt := et.commit()
	b, st := a.reweigh(wt, 1)
	if st.unbuilt != 5 || slices.ContainsFunc([]int{0, 1, 2, 3, 4}, b.Built) {
		t.Fatalf("left %d rows unbuilt from a non-canonical parent, want all 5", st.unbuilt)
	}
	apspBitEqual(t, b, AllPairsSequential(next))
	if math.IsInf(b.span, 1) {
		t.Fatal("the cut graph has unit weights only: its matrix is canonical again")
	}

	// The same shape one step later: both graphs canonical, but the new
	// weight would be absorbed by the old rows' distances.
	et2 := &edgeTable{n: 4}
	et2.add(0, 1, 0x1p40)
	et2.add(1, 2, 0x1p40)
	et2.add(2, 3, 0x1p40)
	a2 := allPairsWorkers(et2.graph(), 0)
	if math.IsInf(a2.span, 1) {
		t.Fatal("fixture: uniform weights must be canonical")
	}
	et2.w[0], et2.w[1], et2.w[2] = 0x1p-40, 0x1p-40, 0x1p-40
	next2, wt2 := et2.commit()
	b2, st2 := a2.reweigh(wt2, 1)
	if st2.unbuilt != 4 || slices.ContainsFunc([]int{0, 1, 2, 3}, b2.Built) {
		t.Fatalf("left %d rows unbuilt across a 2^80 weight swing, want all 4", st2.unbuilt)
	}
	apspBitEqual(t, b2, AllPairsSequential(next2))
}

// TestStrictRelax pins the guard's arithmetic at its edges.
func TestStrictRelax(t *testing.T) {
	for _, c := range []struct {
		name string
		ws   []float64
		want bool
	}{
		{"unit", []float64{1, 1, 1}, true},
		{"no edges", nil, true},
		{"zero", []float64{0, 1}, false},
		{"inf is no arc", []float64{1, math.Inf(1)}, true},
		{"overflow", []float64{1e308, 1e308}, false},
		{"absorbing", []float64{1, 1e300}, false},
		{"wide but exact", []float64{1, 0x1p40}, true},
		{"too wide", []float64{1, 0x1p52}, false},
		{"all huge", []float64{1e300, 2e300}, true},
		{"all tiny", []float64{1e-300, 3e-300}, true},
	} {
		g := New(len(c.ws) + 1)
		for i, w := range c.ws {
			g.AddEdge(i, i+1, w)
		}
		minW, _, reach := g.freeze().weightBounds()
		if got := !math.IsInf(canonicalSpan(minW, reach), 1); got != c.want {
			t.Errorf("%s: canonical=%v, want %v", c.name, got, c.want)
		}
		// Whenever the guard passes, no relaxation over an arc a search
		// relaxes (+Inf is an absent arc) may be absorbed at any finite
		// distance a row can hold.
		if c.want {
			a := AllPairs(g)
			for u := 0; u < a.n; u++ {
				for v := 0; v < a.n; v++ {
					dv := a.Cost(u, v)
					for _, w := range c.ws {
						if dv < Inf && w < Inf && !(dv+w > dv) {
							t.Errorf("%s: %v + %v absorbed under a passing guard", c.name, dv, w)
						}
					}
				}
			}
		}
	}
}

// fatTreeEdges is topology.FatTree's wiring and vertex layout ([core |
// pod0 agg | pod0 edge | pod1 agg | … | hosts], unit weights) as an edge
// table — the topology package imports this one, so the storm test
// cannot. It returns the table, the switch count, and per-vertex degree.
func fatTreeEdges(k int) (*edgeTable, int) {
	half := k / 2
	numCore := half * half
	switches := numCore + k*k
	et := &edgeTable{n: switches + k*half*half}
	agg := func(p, j int) int { return numCore + p*k + j }
	edge := func(p, j int) int { return numCore + p*k + half + j }
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			for c := 0; c < half; c++ {
				et.add(agg(p, j), j*half+c, 1)
			}
		}
	}
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			for e := 0; e < half; e++ {
				et.add(agg(p, j), edge(p, e), 1)
			}
		}
	}
	host := switches
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			for h := 0; h < half; h++ {
				et.add(edge(p, j), host, 1)
				host++
			}
		}
	}
	return et, switches
}

// TestRepairStormWorkBound pins that the saving is a count. A fixed-seed
// 64-event storm in the benchmark's mix (per 16 injections 8 link cuts,
// 3 degrades, 4 switch and 1 host failure; at most three active; every
// one healed) runs over the k=8 fat tree, every matrix read in full, and
// after every event
//
//   - the incremental matrix equals the rebuild, and so does every row
//     repaired (repairEveryRow);
//   - exactly the rows of the record endpoints the event leaves with at
//     most one edge are left unbuilt (unbuiltRows);
//
// and over the cycle the repairs settle at most twice the recorded
// number of vertices: a row built afresh settles all 208, a repaired row
// a handful where the event moves a distance and none where it does not.
func TestRepairStormWorkBound(t *testing.T) {
	const k = 8
	et, switches := fatTreeEdges(k)
	n := et.n
	rng := rand.New(rand.NewSource(20220530))

	type fault struct {
		kind   string // link, degrade, switch, host
		target int    // edge index (link, degrade) or vertex
		factor float64
	}
	set := func(f fault, on bool) {
		switch f.kind {
		case "link":
			et.up[f.target] = !on
		case "degrade":
			et.w[f.target] = 1
			if on {
				et.w[f.target] = f.factor
			}
		default:
			et.vertexUp(f.target, !on)
		}
	}
	// A switch or host coming back must not raise a link another active
	// fault holds down, so re-apply what is still active after a heal.
	var active []fault
	reapply := func() {
		for _, f := range active {
			set(f, true)
		}
	}
	mix := []string{
		"link", "switch", "link", "degrade", "link", "switch", "link", "degrade",
		"link", "switch", "link", "degrade", "link", "switch", "link", "host",
	}
	kinds := append(append([]string(nil), mix...), mix...)
	rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	draw := func(kind string) fault {
		switch kind {
		case "link":
			return fault{kind: kind, target: rng.Intn(len(et.u))}
		case "degrade":
			return fault{kind: kind, target: rng.Intn(len(et.u)), factor: float64(2 + rng.Intn(7))}
		case "switch":
			return fault{kind: kind, target: rng.Intn(switches)}
		}
		return fault{kind: kind, target: switches + rng.Intn(n-switches)}
	}
	isActive := func(f fault) bool {
		for _, a := range active {
			if a.kind == f.kind && a.target == f.target {
				return true
			}
		}
		return false
	}

	g := et.graph()
	cur, curWant := allPairsWorkers(g, 0), AllPairs(g)
	var total deltaStats
	events := 0
	step := func() {
		next, wt := et.commit()
		want := AllPairs(next)
		repairEveryRow(t, cur, curWant, wt, want)
		inc, st := cur.reweigh(wt, []int{1, 2, 0}[events%3])
		if want := unbuiltRows(cur, next, wt); st.unbuilt != want {
			t.Fatalf("event %d: %d rows left unbuilt, want %d", events, st.unbuilt, want)
		}
		apspBitEqual(t, inc, want)
		apspBitEqual(t, cur, curWant)
		total.add(st)
		g, cur, curWant = next, inc, want
		events++
	}
	for len(kinds) > 0 || len(active) > 0 {
		if len(kinds) > 0 && (len(active) == 0 || len(active) < 3 && rng.Float64() < 0.6) {
			f := draw(kinds[0])
			if isActive(f) {
				continue
			}
			kinds = kinds[1:]
			active = append(active, f)
			set(f, true)
		} else {
			j := rng.Intn(len(active))
			f := active[j]
			active = append(active[:j], active[j+1:]...)
			set(f, false)
			reapply()
		}
		step()
	}
	if events != 64 {
		t.Fatalf("storm ran %d events, want 64", events)
	}
	apspBitEqual(t, cur, AllPairs(et.graph()))
	t.Logf("64 events: %d rows changed, %d left unbuilt, %d vertices settled",
		total.changed, total.unbuilt, total.settled)

	// Recorded on this schedule; re-running the changed rows would settle
	// total.changed × 208 vertices.
	const recordedSettled = 4365
	if total.settled > 2*recordedSettled {
		t.Fatalf("repairs settled %d vertices over the cycle, recorded %d: the repair is doing more than it has to",
			total.settled, recordedSettled)
	}
}

// unbuiltRows counts the rows of a fully built parent a.Reweigh(wt)
// leaves unbuilt when the guard holds: the distinct endpoints of changed
// links that next, the graph without the +Inf links, leaves with at most
// one edge.
func unbuiltRows(a *APSP, next *Graph, wt []float64) int {
	rerun := map[int]bool{}
	for _, e := range a.csr.diffWeights(wt) {
		for _, x := range [2]int{e.u, e.v} {
			if len(next.Neighbors(x)) <= 1 {
				rerun[x] = true
			}
		}
	}
	return len(rerun)
}
