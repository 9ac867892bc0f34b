package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// builtBy reads row src of a — the first read, a lone one, so fill
// builds it inline on a's own scratch — and reports which kernel ran, on
// a fresh scratch: "layers" once the FIFO is allocated, "heap" once the
// heap is, "derived" where neither is: a dead end's row added up from its
// anchor's.
func builtBy(t *testing.T, a *APSP, src int) string {
	t.Helper()
	if a.Built(src) {
		t.Fatalf("row %d already built", src)
	}
	a.scratch = SSSPScratch{}
	a.Row(src)
	switch layers, heap := cap(a.scratch.queue) > 0, cap(a.scratch.heap.items) > 0; {
	case layers && !heap:
		return "layers"
	case heap && !layers:
		return "heap"
	case !layers && !heap:
		return "derived"
	}
	t.Fatal("both kernels ran for one row")
	return ""
}

// TestRowKernelChoice pins which kernel builds a row, by the matrix's
// fabric: by layers where every finite arc weighs the same and the span
// is finite — a pristine unit fabric, and one with a link cut, a switch
// dead or a host isolated, which only turn arcs to +Inf — and on the
// heap where the weights differ (a degrade), where one is zero, or where
// a uniform weight is so large that the span overflows. On a layered
// matrix a dead end's row read alone is built by layers while its
// anchor's row is not built, and derived from the anchor's once it is;
// a dead end whose arc is +Inf (the isolated host) is built by layers
// either way. Each matrix is derived from the pristine one as a fault
// view's is (Reweigh); its rows must equal AllPairsSequential's in cost
// bits and Pred either way — read one at a time, switches first, so every
// other host's row is derived there.
func TestRowKernelChoice(t *testing.T) {
	et, switches := fatTreeEdges(4)
	host := et.n - 1
	anchorOf := func(h int) int { // a host's edge switch
		for i := range et.u {
			if et.v[i] == h {
				return et.u[i]
			}
		}
		t.Fatalf("host %d has no link", h)
		return -1
	}
	pristine := AllPairs(et.graph())
	pristine.Row(0) // a parent row the deltas repair
	for _, c := range []struct {
		name   string
		set    func()
		hop    float64
		kernel string
	}{
		{"pristine", func() {}, 1, "layers"},
		{"cut link", func() { et.pairUp(0, false) }, 1, "layers"},
		{"dead switch", func() { et.vertexUp(0, false) }, 1, "layers"},
		{"isolated host", func() { et.vertexUp(host, false) }, 1, "layers"},
		{"cut link and dead switch", func() { et.pairUp(5, false); et.vertexUp(switches-1, false) }, 1, "layers"},
		{"uniform 2.5", func() { fill(et.w, 2.5) }, 2.5, "layers"},
		{"degrade", func() { et.w[3] = 4 }, 0, "heap"},
		{"degrade and cut link", func() { et.w[3] = 4; et.pairUp(0, false) }, 0, "heap"},
		{"zero weight", func() { et.w[3] = 0 }, 0, "heap"},
		{"uniform overflowing", func() { fill(et.w, 1e308) }, 0, "heap"},
	} {
		fill(et.w, 1)
		for i := range et.up {
			et.up[i] = true
		}
		c.set()
		next, wt := et.commit()
		m, _ := pristine.Reweigh(wt, 1)
		if m.hop != c.hop {
			t.Fatalf("%s: hop %v, want %v", c.name, m.hop, c.hop)
		}
		if got := builtBy(t, m, switches); got != c.kernel {
			t.Fatalf("%s: a lone host row built on first read took the %s, want the %s", c.name, got, c.kernel)
		}
		m.Row(anchorOf(switches))
		derived := c.kernel
		if c.kernel == "layers" {
			derived = "derived"
		}
		if got := builtBy(t, m, switches+1); got != derived {
			t.Fatalf("%s: a host row read after its anchor's took the %s, want the %s", c.name, got, derived)
		}
		m.Row(anchorOf(host))
		if !et.up[len(et.u)-1] && c.kernel == "layers" {
			derived = "layers" // its one link is down, its arc +Inf: no anchor
		}
		if got := builtBy(t, m, host); got != derived {
			t.Fatalf("%s: the last host's row read after its anchor's took the %s, want the %s", c.name, got, derived)
		}
		// The graph without the +Inf links decides alike.
		if direct := AllPairs(next); direct.hop != c.hop {
			t.Fatalf("%s: AllPairs of the cut graph has hop %v, the view %v", c.name, direct.hop, c.hop)
		}
		want := AllPairsSequential(next)
		for u := range switches {
			rowBitEqual(t, m, want, u)
		}
		apspBitEqual(t, m, want)
	}
}

// TestDeadEndAnchoredOnDeadEnd pins the two-vertex component: each of
// its vertices is a dead end whose anchor is the other, so neither row is
// derived, whichever is read first; a dead end on a live anchor beside it
// is.
func TestDeadEndAnchoredOnDeadEnd(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	a := AllPairs(g)
	for _, c := range []struct {
		src    int
		kernel string
	}{{0, "layers"}, {1, "layers"}, {3, "layers"}, {2, "derived"}, {4, "derived"}} {
		if got := builtBy(t, a, c.src); got != c.kernel {
			t.Fatalf("row %d took the %s, want the %s", c.src, got, c.kernel)
		}
	}
	apspBitEqual(t, a, AllPairsSequential(g))
}

// TestReweighDerivesDeadEnds pins the repair side of the dead-end rule
// through deltaStats, on a k = 4 fat tree read in full after every event:
// a delta from a matrix layered at one hop to one layered at the same hop
// derives every host row it keeps whose edge switch's row it repairs —
// all but a host whose link is down (no anchor) and a host the delta
// leaves unbuilt — while a delta into or out of a degrade, where one side
// is on the heap, derives none. Every row equals the rebuild's, and the
// parent's rows are untouched.
func TestReweighDerivesDeadEnds(t *testing.T) {
	et, switches := fatTreeEdges(4)
	hosts := et.n - switches
	g := et.graph()
	cur := allPairsWorkers(g, 0)
	for _, ev := range []struct {
		name    string
		apply   func()
		derived int
	}{
		{"link cut", func() { et.pairUp(0, false) }, hosts},
		{"host kill", func() { et.vertexUp(switches, false) }, hosts - 1},
		{"edge switch kill", func() { et.vertexUp(switches-1, false) }, hosts - 1 - 2},
		{"degrade", func() { et.w[1] = 4 }, 0},
		{"degrade heal", func() { et.w[1] = 1 }, 0},
		{"heal all", func() {
			for i := range et.up {
				et.up[i] = true
			}
		}, hosts - 1 - 2},
	} {
		ev.apply()
		next, wt := et.commit()
		inc, st := cur.reweigh(wt, 2)
		if st.derived != ev.derived {
			t.Fatalf("%s: %d rows derived, want %d", ev.name, st.derived, ev.derived)
		}
		apspBitEqual(t, inc, AllPairsSequential(next))
		apspBitEqual(t, cur, AllPairsSequential(g))
		g, cur = next, inc
	}
}

// fill sets every weight to w.
func fill(ws []float64, w float64) {
	for i := range ws {
		ws[i] = w
	}
}

// TestLayeredRowsMatchOracle holds every row the layered kernel builds —
// by layers, or a dead end's derived from its anchor's — to
// AllPairsSequential's, the adjacency-list heap search, in cost bits and
// in Pred, on the uniform fabrics it serves: fat trees at k = 4, 8 and
// 16, a leaf-spine, a k = 8 view whose dead pod aggregation partitions
// the fabric, a k = 4 view with a host's link cut, a leaf-spine beside a
// two-vertex component (two dead ends, each the other's anchor), and
// random multigraphs at weight 0.1 with parallel arcs and a leaf on two
// of them. Every matrix but the k = 16 one is read as one batch at one
// worker and at GOMAXPROCS (the inline and the fanned-out build), where
// every dead end's anchor is in the batch, and row by row from the last
// vertex down, where a host is read before its edge switch; each is held
// to Graph.Dijkstra's trace too. The k = 16 one is read as one batch at
// GOMAXPROCS, which keeps the test's time under -race.
func TestLayeredRowsMatchOracle(t *testing.T) {
	type fabric struct {
		name string
		et   *edgeTable
		cut  func(et *edgeTable) // the faults of a view; nil for none
	}
	var fabrics []fabric
	for _, k := range []int{4, 8, 16} {
		et, _ := fatTreeEdges(k)
		fabrics = append(fabrics, fabric{name: fmt.Sprintf("fat tree k=%d", k), et: et})
	}
	fabrics = append(fabrics, fabric{name: "leaf-spine", et: leafSpineEdges(4, 8, 4)})
	part, _ := fatTreeEdges(8)
	fabrics = append(fabrics, fabric{name: "partitioned view", et: part, cut: func(et *edgeTable) {
		for j := range 4 { // pod 0's aggregation switches: its racks keep only each other
			et.vertexUp(16+j, false)
		}
	}})
	cut, _ := fatTreeEdges(4)
	fabrics = append(fabrics, fabric{name: "host link cut", et: cut, cut: func(et *edgeTable) {
		et.up[len(et.u)-1] = false // the last host's one link
	}})
	pair := leafSpineEdges(2, 4, 2)
	pair.n += 2
	pair.add(pair.n-2, pair.n-1, 1)
	fabrics = append(fabrics, fabric{name: "two-vertex component", et: pair})
	// Long, thin multigraphs at weight 0.1, whose layer costs are sums and
	// not products: ten hops cost 0.9999999999999999, not 10 × 0.1.
	rng := rand.New(rand.NewSource(50))
	for range 4 {
		n := 8 + rng.Intn(40)
		et := &edgeTable{n: n}
		for v := 1; v < n-1; v++ {
			et.add(v-1-rng.Intn(min(v, 3)), v, 0.1)
		}
		for i := n / 4; i > 0; i-- {
			if u, v := rng.Intn(n-1), rng.Intn(n-1); u != v {
				et.add(u, v, 0.1) // parallel arcs on purpose
			}
		}
		et.add(0, n-1, 0.1) // a leaf on two parallel arcs: not a dead end
		et.add(n-1, 0, 0.1)
		fabrics = append(fabrics, fabric{name: "multigraph", et: et})
	}

	for _, f := range fabrics {
		whole := f.et.graph()
		if f.cut != nil {
			f.cut(f.et)
		}
		next, wt := f.et.commit()
		want := AllPairsSequential(next)
		small := next.Order() <= 208
		workers := []int{1, 0}
		if !small {
			workers = workers[1:] // k = 16: the inline build is the small fabrics' to test
		}
		matrix := func(workers int) *APSP {
			a := AllPairs(whole)
			if f.cut != nil {
				a.Row(0) // a row the view repairs; the rest it builds
				a, _ = a.Reweigh(wt, workers)
			}
			if a.hop == 0 {
				t.Fatalf("%s: the matrix does not see a uniform fabric", f.name)
			}
			return a
		}
		for _, workers := range workers {
			a := matrix(workers)
			a.buildRows(nil, workers)
			apspBitEqual(t, a, want)
			if small {
				predMatchesTrace(t, f.name, a, next)
			}
		}
		if small {
			a := matrix(1)
			for u := next.Order() - 1; u >= 0; u-- {
				rowBitEqual(t, a, want, u)
			}
			predMatchesTrace(t, f.name, a, next)
		}
	}
}

// leafSpineEdges is a two-tier Clos at unit weight: every leaf wired to
// every spine, and hosts hanging off each leaf, numbered spines, leaves,
// hosts.
func leafSpineEdges(spines, leaves, hostsPerLeaf int) *edgeTable {
	et := &edgeTable{n: spines + leaves + leaves*hostsPerLeaf}
	for l := range leaves {
		for s := range spines {
			et.add(spines+l, s, 1)
		}
		for h := range hostsPerLeaf {
			et.add(spines+l, spines+leaves+l*hostsPerLeaf+h, 1)
		}
	}
	return et
}
