package graph

import "fmt"

// CSR is a frozen compressed-sparse-row view of a Graph: all adjacency
// lists flattened into two parallel arrays indexed by a per-vertex offset
// table. A search over a CSR touches two contiguous slices instead of
// chasing [][]Edge headers, which removes a pointer dereference and a
// bounds check per edge and keeps the edge stream cache-resident — the
// difference that matters when an APSP matrix builds its rows back to
// back over a fat-tree PPDC: by layers (layersInto) where every live arc
// weighs the same, as on a unit-weight fabric with some links cut, by
// Dijkstra (DijkstraInto) elsewhere.
//
// A CSR is a snapshot: edges added to the Graph after it is frozen are
// not visible. Neighbor order is preserved exactly, so CSR Dijkstra
// performs the identical sequence of float operations as Graph.Dijkstra
// and its dist/prev output is bit-identical (asserted by tests).
// An arc of weight +Inf is an absent arc: no search relaxes it and no
// bound reads it, so a fault view is the fabric under other weights.
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

// freeze builds the CSR snapshot of g.
func (g *Graph) freeze() *CSR {
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

// weightBounds returns the least finite arc weight (+Inf without one),
// the greatest (0 without one), and the reach: Order() × the greatest, an
// upper bound on every finite shortest-path cost over c. A path has fewer
// than Order() arcs and each addition rounds up by at most a factor
// 1+2⁻⁵³, which the spare arc absorbs at any order a matrix can be
// allocated for.
func (c *CSR) weightBounds() (minW, maxW, reach float64) {
	minW = Inf
	for _, w := range c.wt {
		if w < minW {
			minW = w
		}
		if w > maxW && w < Inf {
			maxW = w
		}
	}
	return minW, maxW, float64(c.n) * maxW
}

// live returns the number of v's arcs of finite weight: the ones a
// search relaxes.
func (c *CSR) live(v int) (k int) {
	for _, w := range c.wt[c.rowStart[v]:c.rowStart[v+1]] {
		if w < Inf {
			k++
		}
	}
	return k
}

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
	prev    []int32 // the links of a caller that passes no prev
	queue   []int32 // layersInto's FIFO
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
// Order(); prev may be nil, for a caller that wants no links). Unreachable
// vertices get dist Inf and prev -1; prev[src] is -1. Output is
// bit-identical to Graph.Dijkstra on the frozen graph unless a Visit hook
// on s skips or discards; then which cells are final is the hook's
// argument. Dead ends are written, not queued.
func (c *CSR) DijkstraInto(src int, dist []float64, prev []int32, s *SSSPScratch) {
	if prev == nil {
		// Into s's own buffer: the loop below stays one loop for both
		// kinds of caller, without a test per relaxation.
		if len(s.prev) != c.n {
			s.prev = make([]int32, c.n)
		}
		prev = s.prev
	}
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

// layersInto writes src's row into dist (length Order()) over c, every
// finite arc of which weighs w, with relaxations strictly increasing
// (strictRelax; APSP.hop holds both): the same bits as DijkstraInto with
// no prev, built breadth-first. A FIFO pops the vertices in order of hop
// count, so the first arc to reach a vertex comes from the layer before
// its own, and it writes fl(d + w) from that layer's one distance d.
// Under strictly increasing relaxations the row is the unique fixed point
// of dist[v] = min over arcs of fl(dist[u] + w) (repair.go), and layer L
// holding d_L = fl(d_{L-1} + w), strictly increasing in L, is that fixed
// point. +Inf arcs are skipped; dead ends are written, not queued.
func (c *CSR) layersInto(src int, dist []float64, w float64, s *SSSPScratch) {
	if len(dist) != c.n {
		panic("graph: layersInto row length mismatch")
	}
	for i := range dist {
		dist[i] = Inf
	}
	if cap(s.queue) < c.n {
		s.queue = make([]int32, 0, c.n)
	}
	dist[src] = 0
	q := append(s.queue[:0], int32(src))
	for head := 0; head < len(q); head++ {
		u := q[head]
		d := dist[u] + w
		lo, hi := c.rowStart[u], c.rowStart[u+1]
		wt := c.wt[lo:hi]
		for j, to := range c.to[lo:hi] {
			if dist[to] == Inf && wt[j] < Inf {
				dist[to] = d
				if !c.dead[to] {
					q = append(q, to)
				}
			}
		}
	}
	s.queue = q
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

// pred is the predecessor of v on the path to it in r, a canonical row
// (repair.go) over c: the neighbour x with the least (r(x), x) among those
// with fl(r(x) + w(x,v)) == r(v). -1 where none is — at the row's source,
// and where v is unreachable. It reads v's arcs and r's cells at their
// heads, nothing else.
func (c *CSR) pred(r Row, v int) int {
	dv, best, bestD := r.Cost(v), -1, Inf
	if dv == Inf {
		return -1
	}
	for e := c.rowStart[v]; e < c.rowStart[v+1]; e++ {
		x := int(c.to[e])
		if dx := r.Cost(x); dx+c.wt[e] == dv && (dx < bestD || dx == bestD && x < best) {
			best, bestD = x, dx
		}
	}
	return best
}

// Arc returns the slot of the first arc u→v of least weight, or -1 when
// there is none. On a shortest-path tree edge u→v it is an arc the
// search could have set v's cell with: the search relaxed every parallel
// arc and kept the least sum, and the least weight gives it, so a left
// fold of a tree path over these arcs reproduces the path's cells.
func (c *CSR) Arc(u, v int) int {
	best := -1
	for e := c.rowStart[u]; e < c.rowStart[u+1]; e++ {
		if int(c.to[e]) == v && (best < 0 || c.wt[e] < c.wt[best]) {
			best = int(e)
		}
	}
	return best
}

// NumSlots returns the number of directed edge slots in the snapshot
// (2× the undirected edge count for a frozen Graph).
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
// NumSlots(). The caller keeps ownership of wt. A fault view's fabric is
// one such snapshot, never rewritten; the capacity-aware router reuses
// one buffer to prune saturated links (weight +Inf) between searches.
func (c *CSR) WithWeights(wt []float64) *CSR {
	if len(wt) != len(c.wt) {
		panic(fmt.Sprintf("graph: WithWeights got %d slots, snapshot has %d", len(wt), len(c.wt)))
	}
	return &CSR{n: c.n, rowStart: c.rowStart, to: c.to, wt: wt, dead: c.dead}
}
