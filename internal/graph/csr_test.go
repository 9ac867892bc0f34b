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
		csr := g.freeze()
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

// TestCSRSnapshotIsFrozen: edges added after freeze are invisible to the
// snapshot.
func TestCSRSnapshotIsFrozen(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 5)
	csr := g.freeze()
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
	csr := g.freeze()
	dist, prev := csr.Dijkstra(2)
	if dist[2] != 0 || prev[2] != -1 {
		t.Fatalf("self row wrong: %v %v", dist[2], prev[2])
	}
	for _, v := range []int{0, 1, 3} {
		if !math.IsInf(dist[v], 1) || prev[v] != -1 {
			t.Fatalf("isolated source reached %d: %v %v", v, dist[v], prev[v])
		}
	}

	one := New(1).freeze()
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

// TestCSRWithWeights: the snapshot over a caller's weight array shares
// structure, reads the weights given, and an Inf weight prunes the edge.
func TestCSRWithWeights(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	g.AddEdge(0, 2, 10)
	base := g.freeze()
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

// TestInfArcIsAbsentArc pins what a fault view rests on: a CSR whose
// arcs of some edges weigh +Inf (WithWeights) is, bit for bit, the CSR
// of the graph without those edges. Over random fabrics thick with
// pendants and bridges, and the dead-end graphs, random edge subsets go
// +Inf and others are re-weighted; the matrix over the view — from
// scratch, and derived by Reweigh from the fabric's full matrix,
// the rows it leaves unbuilt read afterwards — must match
// AllPairsSequential over the CloneMapped graph: every cost, Pred, the
// span and the Floor.
func TestInfArcIsAbsentArc(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	graphs := deadEndGraphs(rng)
	for range 20 {
		n := 2 + rng.Intn(40)
		graphs = append(graphs, randomConnectedGraph(rng, n, rng.Intn(n/2+1)))
	}
	for gi, g := range graphs {
		base := AllPairs(g)
		full := allPairsWorkers(g, 0)
		for trial := range 6 {
			down, factor := map[[2]int]bool{}, map[[2]int]float64{}
			for _, e := range g.Edges() {
				p := [2]int{e.U, e.V}
				switch r := rng.Float64(); {
				case r < 0.25:
					down[p] = true
				case r < 0.4:
					factor[p] = []float64{0.5, 3, 7.25}[rng.Intn(3)]
				}
			}
			mapped := func(u, v int, w float64) (float64, bool) {
				p := [2]int{min(u, v), max(u, v)}
				if f, ok := factor[p]; ok {
					w *= f
				}
				return w, !down[p]
			}
			wt := weighed(base.Fabric(), mapped)
			view := base.Fabric().WithWeights(wt)
			want := AllPairsSequential(g.CloneMapped(mapped))
			inc, _ := full.Reweigh(wt, 1+trial%3)
			for name, got := range map[string]*APSP{"scratch": newAPSP(view), "delta": inc} {
				if got.span != want.span || got.minW != want.minW || got.Closure(nil).Floor() != want.Closure(nil).Floor() {
					t.Fatalf("graph %d trial %d %s: span %v floor %v, the clone's %v and %v", gi, trial, name, got.span, got.minW, want.span, want.minW)
				}
				apspBitEqual(t, got, want)
			}
		}
	}
}
