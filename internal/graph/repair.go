package graph

import "math"

// Row repair: the dynamic single-source kernel behind APSP.Reweigh.
//
// Canonical row. Call a graph's relaxations strictly increasing when
// fl(d + w) > d for every edge weight w and every finite distance d a
// row over it can hold (strictRelax decides this from the weights).
// Then DijkstraInto settles each vertex once, in (dist, id) order, and
// rewrites a cell on strict < only, so its output is a function of the
// graph alone, not of the trace:
//
//   - dist is the unique solution of dist[s] = 0,
//     dist[v] = min over edges {u,v} of fl(dist[u] + w(u,v)), +Inf where
//     no edge offers a finite candidate. (No solution exceeds the cost of
//     any s→v path: induct along it, fl(· + w) is monotone. And every
//     finite value has a tight neighbour, which is strictly closer, so
//     tight neighbours lead back to s along a real path of exactly that
//     cost. Both bounds meet at the shortest-path cost.)
//   - prev[v] is the neighbour with the smallest (dist[u], u) among those
//     with fl(dist[u] + w(u,v)) == dist[v]: tight neighbours are strictly
//     closer, hence popped before v in exactly that order, and only the
//     first of them finds dist[v] still larger. -1 for s and for
//     unreachable vertices.
//
// So a row stores dist alone, and prev is that rule applied on read
// (CSR.pred). Any procedure that reaches the fixed point yields the bits
// of a from-scratch run. repairRow does, starting from the row under the
// weights before the change, in the manner of Ramalingam & Reps
// (J. Algorithms 21, 1996): it finds the vertices that lose their
// distance by the tight-edge test — an edge {x,y} carries a shortest path
// to y exactly when fl(dist[x] + w) == dist[y] — and touches only the
// vertices whose distance the change can move and their neighbourhoods.

// relaxEps is 2⁻⁵²: ulp(d) ≤ d·relaxEps for every normal float64 d.
const relaxEps = 0x1p-52

// strictRelax reports whether fl(d + w) > d for every weight w ≥ minW and
// every distance 0 ≤ d ≤ reach. Rounding absorbs w only when w ≤ ulp(d)/2
// and ulp(d) ≤ d·2⁻⁵², so the test leaves a factor two of headroom (it
// also covers the rounding of reach itself). reach ≥ 0, so a true result
// implies minW > 0; a zero, +Inf or overflowing weight fails it.
func strictRelax(minW, reach float64) bool {
	return minW > reach*relaxEps
}

// canonicalSpan is the APSP.span of a matrix built over a CSR with the
// given weightBounds.
func canonicalSpan(minW, reach float64) float64 {
	if strictRelax(minW, reach) {
		return reach
	}
	return Inf
}

// repairScratch holds the reusable buffers of one row-repair stream. The
// two stamp arrays are generation-stamped, so starting a row costs O(1)
// instead of an O(n) clear.
type repairScratch struct {
	sssp SSSPScratch
	// mark[v] == gen: v lost its support in this row.
	mark []uint32
	// seen[v] == gen: queued in the support pass.
	seen []uint32
	gen  uint32
	lost []int32 // the marked vertices
}

// begin starts a row over an n-vertex graph and returns its generation.
func (s *repairScratch) begin(n int) uint32 {
	if len(s.mark) != n {
		s.mark, s.seen, s.gen = make([]uint32, n), make([]uint32, n), 0
	} else if s.gen == math.MaxUint32 {
		clear(s.mark)
		clear(s.seen)
		s.gen = 0
	}
	s.gen++
	s.lost = s.lost[:0]
	return s.gen
}

// repairRow rewrites r — derived from source src's canonical row under
// the receiver's old weights — into src's canonical row over c, copying
// only the blocks in which a cell changes (cowRow). ch lists the links
// whose weight changed: one that was finite names where a distance can be
// lost, one that is finite now, at its weight in c, where one can be
// gained. bare[x] marks a changed link's endpoint x with no live arc in c.
//
// Both weightings' relaxations must be strictly increasing over the old
// row's distances as well as the new (Reweigh's guard); the old row is
// then canonical, and every "strictly closer" below holds.
//
// Its work is bounded by what the change moves, not by the row: a link
// that carries no tight path costs O(degree) — each end's support check.
// It returns the number of vertices the drain settled.
func (c *CSR) repairRow(src int, r *cowRow, ch []arcChange, bare []bool, s *repairScratch) (settled int) {
	gen := s.begin(c.n)
	h := &s.sssp.heap
	h.items = h.items[:0]

	// (1) Lost support. A vertex can lose its distance only with a tight
	// edge of its (old d(x) + w == d(v)): one whose weight changed from a
	// finite one, or one from a vertex that lost its own. Seed both ends of
	// every link that was finite — but the source and the unreachable
	// cells, which have nothing to lose — and pop in (old dist, id) order.
	// A popped vertex keeps its distance — as an upper bound a real path
	// of c witnesses — if an unmarked neighbour still offers a candidate no
	// larger; otherwise it is marked and every neighbour it was tight for
	// queues up (one over a changed link is a seed already, whatever its
	// weight in c). One pass is enough: a supporter is strictly closer, so
	// it has been popped and decided, or never will be.
	seed := func(v int) {
		switch {
		case v == src || s.seen[v] == gen || r.Cost(v) == Inf:
		case bare[v]:
			// No live arc in c: nothing supports v, and no neighbour is left to queue.
			s.seen[v], s.mark[v] = gen, gen
			s.lost = append(s.lost, int32(v))
		default:
			s.seen[v] = gen
			h.push(heapItem{v: v, cost: r.Cost(v)})
		}
	}
	for _, x := range ch {
		if x.was < Inf {
			seed(x.u)
			seed(x.v)
		}
	}
	for h.Len() > 0 {
		it := h.pop()
		lo, hi := c.rowStart[it.v], c.rowStart[it.v+1]
		supported := false
		for e := lo; e < hi; e++ {
			if u := c.to[e]; s.mark[u] != gen && r.Cost(int(u))+c.wt[e] <= it.cost {
				supported = true
				break
			}
		}
		if supported {
			continue
		}
		s.mark[it.v] = gen
		s.lost = append(s.lost, int32(it.v))
		for e := lo; e < hi; e++ {
			if y := c.to[e]; s.seen[y] != gen && c.wt[e] < Inf && it.cost+c.wt[e] == r.Cost(int(y)) {
				s.seen[y] = gen
				h.push(heapItem{v: int(y), cost: r.Cost(int(y))})
			}
		}
	}

	// (2) Re-settle. Every marked vertex restarts from its best candidate
	// over unmarked neighbours (+Inf if none: an isolated vertex needs no
	// case of its own). Marked cells are only written here, unmarked ones
	// only read, so the order does not matter. Here, in (3) and in (4) a
	// dead end is written and not queued, as in DijkstraInto: relaxing it
	// back cannot lower its neighbour, whose distance only falls from here.
	for _, v := range s.lost {
		best := Inf
		for e := c.rowStart[v]; e < c.rowStart[v+1]; e++ {
			if u := c.to[e]; s.mark[u] != gen {
				if nd := r.Cost(int(u)) + c.wt[e]; nd < best {
					best = nd
				}
			}
		}
		r.set(int(v), best)
		if best < Inf && !c.dead[v] {
			h.push(heapItem{v: int(v), cost: best})
		}
	}

	// (3) Gains. A link that appeared or got cheaper can lower only what
	// lies across it: relax each link finite in c both ways at its new
	// weight, and queue the head it strictly improves; the drain carries
	// the gain on from there. A link gone to +Inf queues nothing here: a
	// marked vertex is queued already.
	for _, x := range ch {
		if x.now < Inf {
			c.gain(r, h, x.u, x.v, x.now)
			c.gain(r, h, x.v, x.u, x.now)
		}
	}

	// (4) One ordinary Dijkstra drain over all of c. Every cell is an upper
	// bound witnessed by a path, and every edge that could still lower its
	// head starts at a queued vertex — a marked one or a head (3) lowered —
	// so the drain ends at the fixed point.
	for h.Len() > 0 {
		it := h.pop()
		if it.cost > r.Cost(it.v) {
			continue // stale entry
		}
		settled++
		for e := c.rowStart[it.v]; e < c.rowStart[it.v+1]; e++ {
			to := c.to[e]
			if nd := it.cost + c.wt[e]; nd < r.Cost(int(to)) {
				r.set(int(to), nd)
				if !c.dead[to] {
					h.push(heapItem{v: int(to), cost: nd})
				}
			}
		}
	}
	return settled
}

// gain relaxes the edge u→v of weight w in step (3) of repairRow: a
// strict improvement writes v and queues it on h. A dead end is written,
// not queued.
func (c *CSR) gain(r *cowRow, h *costHeap, u, v int, w float64) {
	if nd := r.Cost(u) + w; nd < r.Cost(v) {
		r.set(v, nd)
		if !c.dead[v] {
			h.push(heapItem{v: v, cost: nd})
		}
	}
}
