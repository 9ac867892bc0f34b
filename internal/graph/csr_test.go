package graph

import (
	"math"
	"math/rand"
	"testing"
)

// deadEndGraphs are the graphs on which the CSR kernel writes dead ends
// instead of queueing them: fat trees, whose hosts are leaves, at unit
// and at random weights, and a hand graph with a pendant path, a leaf on
// two parallel edges (two arcs: not dead), a zero-weight leaf, an
// isolated vertex and leaves in both orders next to their neighbours.
func deadEndGraphs(rng *rand.Rand) []*Graph {
	var gs []*Graph
	for _, k := range []int{4, 8} {
		et, _ := fatTreeEdges(k)
		gs = append(gs, et.graph())
		for i := range et.w {
			et.w[i] = 1 + 9*rng.Float64()
		}
		gs = append(gs, et.graph())
	}
	h := New(11)
	h.AddEdge(1, 2, 1.5)
	h.AddEdge(2, 3, 0.25)
	h.AddEdge(3, 1, 2)
	h.AddEdge(3, 4, 1) // pendant path 3-4-5-6
	h.AddEdge(4, 5, 0.5)
	h.AddEdge(5, 6, 3)
	h.AddEdge(1, 7, 2) // leaf on two parallel edges
	h.AddEdge(7, 1, 0.75)
	h.AddEdge(0, 2, 1) // leaves on either side of their neighbour's id
	h.AddEdge(9, 2, 4)
	h.AddEdge(5, 10, 0) // zero-weight leaf; 8 is isolated
	return append(gs, h)
}

// TestCSRDijkstraBitIdentical: the CSR kernel must reproduce
// Graph.Dijkstra bit-for-bit (same relaxation order, same float ops), not
// merely within tolerance — also where it writes dead ends unqueued.
func TestCSRDijkstraBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var graphs []*Graph
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		graphs = append(graphs, randomConnectedGraph(rng, n, rng.Intn(2*n)))
	}
	for trial, g := range append(graphs, deadEndGraphs(rng)...) {
		n := g.Order()
		csr := g.Freeze()
		var scratch SSSPScratch
		dist := make([]float64, n)
		prev := make([]int32, n)
		for src := 0; src < n; src++ {
			wantDist, wantPrev := g.Dijkstra(src)
			csr.DijkstraInto(src, dist, prev, &scratch)
			for v := 0; v < n; v++ {
				if dist[v] != wantDist[v] {
					t.Fatalf("trial %d src %d: dist[%d] = %v, oracle %v", trial, src, v, dist[v], wantDist[v])
				}
				if int(prev[v]) != wantPrev[v] {
					t.Fatalf("trial %d src %d: prev[%d] = %d, oracle %d", trial, src, v, prev[v], wantPrev[v])
				}
			}
		}
	}
}

// TestCSRSnapshotIsFrozen: edges added after Freeze are invisible to the
// snapshot.
func TestCSRSnapshotIsFrozen(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 5)
	csr := g.Freeze()
	g.AddEdge(1, 2, 1)
	dist, _ := csr.Dijkstra(0)
	if dist[1] != 5 || !math.IsInf(dist[2], 1) {
		t.Fatalf("snapshot leaked later edges: dist = %v", dist)
	}
	// The live graph sees the new edge.
	liveDist, _ := g.Dijkstra(0)
	if liveDist[2] != 6 {
		t.Fatalf("live graph dist[2] = %v", liveDist[2])
	}
}

// TestCSRDisconnectedAndTrivial covers the empty-row and single-vertex
// paths of the kernel.
func TestCSRDisconnectedAndTrivial(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	// vertices 2 and 3 are isolated
	csr := g.Freeze()
	dist, prev := csr.Dijkstra(2)
	if dist[2] != 0 || prev[2] != -1 {
		t.Fatalf("self row wrong: %v %v", dist[2], prev[2])
	}
	for _, v := range []int{0, 1, 3} {
		if !math.IsInf(dist[v], 1) || prev[v] != -1 {
			t.Fatalf("isolated source reached %d: %v %v", v, dist[v], prev[v])
		}
	}

	one := New(1).Freeze()
	d1, p1 := one.Dijkstra(0)
	if d1[0] != 0 || p1[0] != -1 {
		t.Fatalf("order-1 graph: %v %v", d1, p1)
	}
}

// TestAllPairsParallelBitIdentical: the acceptance gate of the parallel
// APSP — dist and prev matrices byte-identical to the sequential oracle at
// several worker counts, including workers > |V|.
func TestAllPairsParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var graphs []*Graph
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(80)
		graphs = append(graphs, randomConnectedGraph(rng, n, rng.Intn(2*n)))
	}
	for trial, g := range append(graphs, deadEndGraphs(rng)...) {
		n := g.Order()
		want := AllPairsSequential(g)
		for _, workers := range []int{0, 1, 2, 3, 7, n + 13} {
			got := allPairsWorkers(g, workers)
			if got.n != want.n {
				t.Fatalf("order mismatch %d vs %d", got.n, want.n)
			}
			for s := 0; s < n; s++ {
				for v := 0; v < n; v++ {
					if got.Cost(s, v) != want.Cost(s, v) {
						t.Fatalf("trial %d workers %d: dist[%d][%d] = %v, oracle %v",
							trial, workers, s, v, got.Cost(s, v), want.Cost(s, v))
					}
					if got.Pred(s, v) != want.Pred(s, v) {
						t.Fatalf("trial %d workers %d: prev[%d][%d] = %d, oracle %d",
							trial, workers, s, v, got.Pred(s, v), want.Pred(s, v))
					}
				}
			}
		}
	}
}

// TestCSRLayeredEmptyChain: zero gateway stages must reproduce the base
// snapshot exactly — same order, same Dijkstra output.
func TestCSRLayeredEmptyChain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnectedGraph(rng, 20, 30)
	base := g.Freeze()
	lay := base.Layered(nil, 0)
	if lay.Order() != base.Order() || lay.NumSlots() != base.NumSlots() {
		t.Fatalf("empty-chain expansion reshaped the graph: %d/%d vs %d/%d",
			lay.Order(), lay.NumSlots(), base.Order(), base.NumSlots())
	}
	for src := 0; src < base.Order(); src++ {
		wd, wp := base.Dijkstra(src)
		gd, gp := lay.Dijkstra(src)
		for v := range wd {
			if wd[v] != gd[v] || wp[v] != gp[v] {
				t.Fatalf("src %d vertex %d: (%v,%d) vs base (%v,%d)", src, v, gd[v], gp[v], wd[v], wp[v])
			}
		}
	}
}

// TestCSRLayeredChainConstraint: on a 4-path a-b-c-d with the single
// gateway at c, the layered shortest path a→(1,b) must detour through c
// (cost a→c + c→b), not take the direct a→b edge.
func TestCSRLayeredChainConstraint(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	lay := g.Freeze().Layered([][]int{{2}}, 0)
	if lay.Order() != 8 {
		t.Fatalf("expected 2×4 layered vertices, got %d", lay.Order())
	}
	dist, _ := lay.Dijkstra(0)
	// (1,b) = vertex 4+1: a→b→c, cross, c→b = 2 + 0 + 1.
	if dist[4+1] != 3 {
		t.Fatalf("constrained a→b cost = %v, want 3", dist[4+1])
	}
	// Layer 1 cannot be left downward: (1,a) must cost 2+0+2, and layer 0
	// must be unreachable from layer 1 (directed crossing). Reaching (0,x)
	// never goes through layer 1, so dist of layer-0 vertices match base.
	if dist[4+0] != 4 {
		t.Fatalf("constrained a→a cost = %v, want 4", dist[4])
	}
	// From (1,a) the lower layer is unreachable.
	dist1, _ := lay.Dijkstra(4 + 0)
	for v := 0; v < 4; v++ {
		if !math.IsInf(dist1[v], 1) {
			t.Fatalf("layer-1 escaped downward to %d (cost %v)", v, dist1[v])
		}
	}
}

// TestCSRLayeredDeadEnds: on an expansion, writing dead ends unqueued
// leaves every row bit-identical to the same expansion queueing every
// vertex. The sites include a leaf (a crossing enters its copy above,
// which is therefore no dead end) next to switches; sources and targets
// include leaves in every layer.
func TestCSRLayeredDeadEnds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	et, switches := fatTreeEdges(4)
	for i := range et.w {
		et.w[i] = 1 + 9*rng.Float64()
	}
	base := et.graph().Freeze()
	n := base.Order()
	leafSite := switches + 3
	L := base.Layered([][]int{{leafSite, 6}, {0, 13}, {14}}, 0)
	if L.dead[leafSite] || L.dead[n+leafSite] || !L.dead[2*n+leafSite] || !L.dead[3*n+leafSite] {
		t.Fatalf("leaf site %d: dead marks %v over its four copies, want [false false true true]",
			leafSite, []bool{L.dead[leafSite], L.dead[n+leafSite], L.dead[2*n+leafSite], L.dead[3*n+leafSite]})
	}
	queued := *L
	queued.dead = make([]bool, L.n)
	var s SSSPScratch
	dist, prev := make([]float64, L.n), make([]int32, L.n)
	for src := 0; src < L.n; src++ {
		wantDist, wantPrev := queued.Dijkstra(src)
		L.DijkstraInto(src, dist, prev, &s)
		for v := range dist {
			if math.Float64bits(dist[v]) != math.Float64bits(wantDist[v]) || prev[v] != wantPrev[v] {
				t.Fatalf("src %d: cell %d = (%v, %d), queueing every vertex gives (%v, %d)",
					src, v, dist[v], prev[v], wantDist[v], wantPrev[v])
			}
		}
	}
}

// TestCSRLayeredDuplicateGateways: duplicate gateway entries collapse to
// one crossing edge.
func TestCSRLayeredDuplicateGateways(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	lay := g.Freeze().Layered([][]int{{1, 1, 1}}, 0)
	if got, want := lay.NumSlots(), 2*2+1; got != want {
		t.Fatalf("slots = %d, want %d (duplicates must collapse)", got, want)
	}
}

// TestCSRWithWeights: the snapshot over a caller's weight array shares
// structure, reads the weights given, and an Inf weight prunes the edge.
func TestCSRWithWeights(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	g.AddEdge(0, 2, 10)
	base := g.Freeze()
	buf := make([]float64, base.NumSlots())
	reweight := func(f func(u, v int, w float64) float64) *CSR {
		for u := 0; u < base.n; u++ {
			for e := base.rowStart[u]; e < base.rowStart[u+1]; e++ {
				buf[e] = f(u, int(base.to[e]), base.wt[e])
			}
		}
		return base.WithWeights(buf)
	}
	doubled := reweight(func(u, v int, w float64) float64 { return 2 * w })
	d, _ := doubled.Dijkstra(0)
	if d[2] != 10 { // 2*(2+3)
		t.Fatalf("doubled dist[2] = %v, want 10", d[2])
	}
	pruned := reweight(func(u, v int, w float64) float64 {
		if (u == 0 && v == 1) || (u == 1 && v == 0) {
			return math.Inf(1)
		}
		return w
	})
	d, prev := pruned.Dijkstra(0)
	if d[1] != 13 || prev[1] != 2 {
		t.Fatalf("pruned dist[1] = %v via %d, want 13 via 2", d[1], prev[1])
	}
	// The base snapshot is untouched.
	d, _ = base.Dijkstra(0)
	if d[2] != 5 {
		t.Fatalf("base snapshot mutated: dist[2] = %v, want 5", d[2])
	}
}
