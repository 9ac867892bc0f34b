package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// builtBy reads row src of a — the first read, so fill builds it inline
// on a's own scratch when the batch is below fanOutArcs — and reports
// which kernel ran: "layers" once the FIFO is allocated, "heap" once the
// heap is.
func builtBy(t *testing.T, a *APSP, src int) string {
	t.Helper()
	if a.Built(src) {
		t.Fatalf("row %d already built", src)
	}
	a.Row(src)
	switch layers, heap := cap(a.scratch.queue) > 0, cap(a.scratch.heap.items) > 0; {
	case layers && !heap:
		return "layers"
	case heap && !layers:
		return "heap"
	}
	t.Fatal("no kernel, or both, ran for one row")
	return ""
}

// TestRowKernelChoice pins which kernel builds a row, by the matrix's
// fabric: by layers where every finite arc weighs the same and the span
// is finite — a pristine unit fabric, and one with a link cut, a switch
// dead or a host isolated, which only turn arcs to +Inf — and on the
// heap where the weights differ (a degrade), where one is zero, or where
// a uniform weight is so large that the span overflows. Each matrix is
// derived from the pristine one as a fault view's is (Reweigh); its rows
// must equal AllPairsSequential's in cost bits and Pred either way.
func TestRowKernelChoice(t *testing.T) {
	et, switches := fatTreeEdges(4)
	host := et.n - 1
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
			t.Fatalf("%s: a row built on first read took the %s, want the %s", c.name, got, c.kernel)
		}
		// The graph without the +Inf links decides alike.
		if direct := AllPairs(next); direct.hop != c.hop {
			t.Fatalf("%s: AllPairs of the cut graph has hop %v, the view %v", c.name, direct.hop, c.hop)
		}
		apspBitEqual(t, m, AllPairsSequential(next))
	}
}

// fill sets every weight to w.
func fill(ws []float64, w float64) {
	for i := range ws {
		ws[i] = w
	}
}

// TestLayeredRowsMatchOracle holds every row the layered kernel builds to
// AllPairsSequential's — the adjacency-list heap search — in cost bits
// and in Pred, on the uniform fabrics it serves: fat trees at k = 4, 8
// and 16, a leaf-spine, a k = 8 view whose dead pod aggregation
// partitions the fabric, and random multigraphs at weight 0.1 with
// parallel arcs and a leaf on two of them. Every matrix but the k = 16
// one is read at one worker and at GOMAXPROCS (the inline and the
// fanned-out build) and held to Graph.Dijkstra's trace too; the k = 16
// one is read at GOMAXPROCS, which keeps the test's time under -race.
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
		workers := []int{1, 0}
		if next.Order() > 208 {
			workers = workers[1:] // k = 16: the inline build is the small fabrics' to test
		}
		for _, workers := range workers {
			a := AllPairs(whole)
			if f.cut != nil {
				a.Row(0) // a row the view repairs; the rest it builds
				a, _ = a.Reweigh(wt, workers)
			}
			if a.hop == 0 {
				t.Fatalf("%s: the matrix does not see a uniform fabric", f.name)
			}
			a.buildRows(nil, workers)
			apspBitEqual(t, a, want)
			if next.Order() <= 208 {
				predMatchesTrace(t, f.name, a, next)
			}
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
