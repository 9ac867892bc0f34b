package graph

import (
	"fmt"
	"math"
)

// CSR is a frozen compressed-sparse-row view of a Graph: all adjacency
// lists flattened into two parallel arrays indexed by a per-vertex offset
// table. Dijkstra over a CSR touches two contiguous slices instead of
// chasing [][]Edge headers, which removes a pointer dereference and a
// bounds check per edge and keeps the edge stream cache-resident — the
// difference that matters when AllPairs runs |V| Dijkstras back to back
// over a fat-tree PPDC.
//
// A CSR is a snapshot: edges added to the Graph after Freeze are not
// visible. Neighbor order is preserved exactly, so CSR Dijkstra performs
// the identical sequence of float operations as Graph.Dijkstra and its
// dist/prev output is bit-identical (asserted by tests).
//
// Dead ends. A vertex whose row holds exactly one arc, and which no other
// arc enters, is a dead end: a fabric leaf, e.g. a PPDC host on its edge
// switch. Its one neighbour x is its only way in, so its cell is final
// once x relaxes it, and relaxing it back cannot lower x: for weights
// w, w' ≥ 0, fl(fl(d(x) + w) + w') ≥ d(x) by monotone rounding. Dijkstra
// therefore writes a dead end's cell without queueing it; the others pop
// in the same (dist, id) order as before, so rows stay bit-identical.
type CSR struct {
	n        int
	rowStart []int32   // len n+1; edges of u are [rowStart[u], rowStart[u+1])
	to       []int32   // edge targets
	wt       []float64 // edge weights
	dead     []bool    // dead[v]: v is a dead end
}

// Freeze builds the CSR snapshot of g.
func (g *Graph) Freeze() *CSR {
	n := len(g.adj)
	c := &CSR{
		n:        n,
		rowStart: make([]int32, n+1),
		to:       make([]int32, 2*g.m),
		wt:       make([]float64, 2*g.m),
		dead:     make([]bool, n),
	}
	e := int32(0)
	for u, es := range g.adj {
		c.rowStart[u] = e
		for _, edge := range es {
			c.to[e] = int32(edge.To)
			c.wt[e] = edge.Weight
			e++
		}
		c.dead[u] = len(es) == 1 // edges are undirected: its one arc is the one in
	}
	c.rowStart[n] = e
	return c
}

// Order returns the number of vertices in the snapshot.
func (c *CSR) Order() int { return c.n }

// SSSPScratch holds the reusable buffers of one CSR Dijkstra stream: the
// priority queue storage survives across sources, so a warm scratch runs
// a full single-source pass with zero heap allocations.
type SSSPScratch struct {
	heap costHeap
	// Visit, when set, is called once per vertex v as its cells become
	// final, and reports whether to relax v's edges. A queued vertex is
	// visited as it settles, in (dist, id) order; a dead end as its cell
	// is written, and there the result is ignored — it has nothing to
	// relax. Visit may Discard; once it discards every vertex, the search
	// ends with what the current vertex's remaining arcs still queue.
	Visit func(v int) (relax bool)
	// Settled counts the vertices popped and relaxed, over the scratch's
	// life; a dead end is only written, never counted.
	Settled int
}

// Discard drops the queued entries of the vertices in [lo, hi). The
// kept ones are pushed back in place: the k-th push writes slot k, which
// the loop has already read.
func (s *SSSPScratch) Discard(lo, hi int) {
	h := &s.heap
	items := h.items
	h.items = h.items[:0]
	for _, it := range items {
		if it.v < lo || it.v >= hi {
			h.push(it)
		}
	}
}

// DijkstraInto runs Dijkstra from src, writing costs and predecessor
// links into the caller-provided dist and prev rows (each of length
// Order()). Unreachable vertices get dist Inf and prev -1; prev[src] is
// -1. Output is bit-identical to Graph.Dijkstra on the frozen graph
// unless a Visit hook on s skips or discards; then which cells are final
// is the hook's argument. Dead ends are written, not queued.
func (c *CSR) DijkstraInto(src int, dist []float64, prev []int32, s *SSSPScratch) {
	if len(dist) != c.n || len(prev) != c.n {
		panic("graph: DijkstraInto row length mismatch")
	}
	for i := range dist {
		dist[i] = Inf
		prev[i] = -1
	}
	dist[src] = 0
	h, visit := &s.heap, s.Visit
	h.items = h.items[:0]
	h.push(heapItem{v: src, cost: 0})
	for h.Len() > 0 {
		it := h.pop()
		if it.cost > dist[it.v] {
			continue // stale entry
		}
		if visit != nil && !visit(it.v) {
			continue
		}
		s.Settled++
		for e := c.rowStart[it.v]; e < c.rowStart[it.v+1]; e++ {
			to := c.to[e]
			if nd := it.cost + c.wt[e]; nd < dist[to] {
				dist[to] = nd
				prev[to] = int32(it.v)
				switch {
				case !c.dead[to]:
					h.push(heapItem{v: int(to), cost: nd})
				case visit != nil:
					visit(int(to)) // not a stop: it.v's other arcs still relax
				}
			}
		}
	}
}

// Dijkstra is the allocating convenience form of DijkstraInto, for
// callers outside the APSP build loop.
func (c *CSR) Dijkstra(src int) (dist []float64, prev []int32) {
	dist = make([]float64, c.n)
	prev = make([]int32, c.n)
	var s SSSPScratch
	c.DijkstraInto(src, dist, prev, &s)
	return dist, prev
}

// Arc returns the slot of the first arc u→v, or -1 when there is none.
func (c *CSR) Arc(u, v int) int {
	for e := c.rowStart[u]; e < c.rowStart[u+1]; e++ {
		if int(c.to[e]) == v {
			return int(e)
		}
	}
	return -1
}

// NumSlots returns the number of directed edge slots in the snapshot
// (2× the undirected edge count for a frozen Graph; layered expansions
// add their inter-layer slots on top).
func (c *CSR) NumSlots() int { return len(c.to) }

// ForEachSlot calls f once per directed edge slot in slot order:
// f(slot, u, v, w) for the slot'th edge u→v of weight w. Routing layers
// use it to build slot-indexed side tables (physical-link ids, pricing
// buffers) that line up with a WithWeights weight array.
func (c *CSR) ForEachSlot(f func(slot, u, v int, w float64)) {
	for u := 0; u < c.n; u++ {
		for e := c.rowStart[u]; e < c.rowStart[u+1]; e++ {
			f(int(e), u, int(c.to[e]), c.wt[e])
		}
	}
}

// WithWeights returns a snapshot sharing this one's structure (rowStart,
// target arrays and dead-end marks: an +Inf weight never relaxes, so it
// leaves a dead end dead) with wt as its weight array; len(wt) must equal
// NumSlots(). The caller keeps ownership of wt and may rewrite it
// between Dijkstra runs — the capacity-aware router reuses one buffer
// to prune saturated links (weight +Inf) without reallocating.
func (c *CSR) WithWeights(wt []float64) *CSR {
	if len(wt) != len(c.wt) {
		panic(fmt.Sprintf("graph: WithWeights got %d slots, snapshot has %d", len(wt), len(c.wt)))
	}
	return &CSR{n: c.n, rowStart: c.rowStart, to: c.to, wt: wt, dead: c.dead}
}

// Layered builds the directed layered expansion of the snapshot used
// for chain-constrained routing (Sallam et al.): len(gateways)+1
// stacked copies of the graph, where copy ℓ keeps every edge of the
// snapshot (shifted by ℓ·Order()) and each gateway vertex v ∈
// gateways[ℓ] gains one extra *directed* edge from its copy in layer ℓ
// to its copy in layer ℓ+1 with weight interWeight. A path from (0,
// src) to (len(gateways), dst) therefore crosses exactly one gateway
// of every stage in order — the service-function-chain constraint
// expressed as plain graph structure. Duplicate gateway entries within
// one stage collapse to a single edge; out-of-range vertices panic.
//
// Vertex (ℓ, v) has ID ℓ·Order()+v. The expansion is itself a CSR, so
// DijkstraInto runs on it unchanged and stays zero-alloc with a warm
// scratch. (ℓ, v) is a dead end when its row holds one arc and no
// crossing enters it (v ∉ gateways[ℓ−1]): its one way in is then the
// reverse of its one arc, if there is any. A site of stage ℓ has its
// crossing out beside its fabric arcs, so a leaf site is no dead end.
func (c *CSR) Layered(gateways [][]int, interWeight float64) *CSR {
	if interWeight < 0 || math.IsNaN(interWeight) {
		panic(fmt.Sprintf("graph: invalid inter-layer weight %v", interWeight))
	}
	layers := len(gateways) + 1
	n := c.n
	extra := 0
	for _, stage := range gateways {
		extra += len(stage)
	}
	L := &CSR{
		n:        layers * n,
		rowStart: make([]int32, layers*n+1),
		to:       make([]int32, 0, layers*len(c.to)+extra),
		wt:       make([]float64, 0, layers*len(c.wt)+extra),
		dead:     make([]bool, layers*n),
	}
	gw, in := make([]bool, n), make([]bool, n) // in: stage ℓ−1's sites
	for l := 0; l < layers; l++ {
		gw, in = in, gw
		clear(gw)
		if l < len(gateways) {
			for _, v := range gateways[l] {
				if v < 0 || v >= n {
					panic(fmt.Sprintf("graph: layered gateway %d out of range [0,%d)", v, n))
				}
				gw[v] = true
			}
		}
		off := int32(l * n)
		for u := 0; u < n; u++ {
			x := off + int32(u)
			L.rowStart[x] = int32(len(L.to))
			for e := c.rowStart[u]; e < c.rowStart[u+1]; e++ {
				L.to = append(L.to, c.to[e]+off)
				L.wt = append(L.wt, c.wt[e])
			}
			if gw[u] {
				L.to = append(L.to, off+int32(n)+int32(u))
				L.wt = append(L.wt, interWeight)
			}
			L.dead[x] = int32(len(L.to))-L.rowStart[x] == 1 && !in[u]
		}
	}
	L.rowStart[layers*n] = int32(len(L.to))
	return L
}
