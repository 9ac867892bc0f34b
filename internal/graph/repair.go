package graph

import "math"

// Row repair: the dynamic single-source kernel behind ApplyEdgeDeltas.
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
// Any procedure that reaches that fixed point and applies that rule
// yields the bits of a from-scratch run. repairRow does, starting from
// the row of the graph the delta was taken against, in the manner of
// Ramalingam & Reps (J. Algorithms 21, 1996), touching only the vertices
// whose distance the delta can move and their neighbourhoods.

// relaxEps is 2⁻⁵²: ulp(d) ≤ d·relaxEps for every normal float64 d.
const relaxEps = 0x1p-52

// weightBounds returns g's smallest edge weight (+Inf without edges) and
// its reach: Order() × the largest weight, an upper bound on every finite
// shortest-path cost over g. A path has fewer than Order() edges and each
// addition rounds up by at most a factor 1+2⁻⁵³, which the spare edge
// absorbs at any order a matrix can be allocated for.
func (g *Graph) weightBounds() (minW, reach float64) {
	minW, maxW := Inf, 0.0
	for _, es := range g.adj {
		for _, e := range es {
			if e.Weight < minW {
				minW = e.Weight
			}
			if e.Weight > maxW {
				maxW = e.Weight
			}
		}
	}
	return minW, float64(len(g.adj)) * maxW
}

// strictRelax reports whether fl(d + w) > d for every weight w ≥ minW and
// every distance 0 ≤ d ≤ reach. Rounding absorbs w only when w ≤ ulp(d)/2
// and ulp(d) ≤ d·2⁻⁵², so the test leaves a factor two of headroom (it
// also covers the rounding of reach itself). reach ≥ 0, so a true result
// implies minW > 0; a zero, +Inf or overflowing weight fails it.
func strictRelax(minW, reach float64) bool {
	return minW > reach*relaxEps
}

// canonicalSpan is the APSP.span of a matrix built over a graph with the
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
	// seen[v] == gen: queued in the support pass; gen+1: prev re-derived.
	seen    []uint32
	gen     uint32
	touched []int32 // vertices whose dist cell the repair wrote
	fix     []int32 // seeds and tie heads: prev may move where no distance did
}

// begin starts a row over an n-vertex graph and returns its generation.
func (s *repairScratch) begin(n int) uint32 {
	if len(s.mark) != n {
		s.mark, s.seen, s.gen = make([]uint32, n), make([]uint32, n), 0
	} else if s.gen > math.MaxUint32-4 {
		clear(s.mark)
		clear(s.seen)
		s.gen = 0
	}
	s.gen += 2
	s.touched, s.fix = s.touched[:0], s.fix[:0]
	return s.gen
}

// repairRow rewrites r — derived from source src's canonical row over the
// delta's old graph — into src's canonical row over c, copying only the
// blocks in which a cell changes (cowRow). The delta's Removed and
// Reweighted records name where a distance can be lost, its Restored and
// Reweighted records, at their weights in c, where one can be gained.
//
// Both graphs' relaxations must be strictly increasing over the old
// row's distances as well as the new (ApplyEdgeDeltas' guard); the old
// row is then canonical, and every "strictly closer" below holds.
//
// Its work is bounded by what the delta moves, not by the row: a record
// whose edge carries no tree path and wins no tie costs O(1), and prev is
// re-derived only where it can change. It returns the number of vertices
// the drain settled and the number of prev cells recomputed.
func (c *CSR) repairRow(src int, r *cowRow, d EdgeDelta, s *repairScratch) (settled, prevCells int) {
	gen := s.begin(c.n)
	h := &s.sssp.heap
	h.items = h.items[:0]

	// (1) Lost support. A vertex can lose its distance only through its
	// tree edge: seed the child end of every removed or re-weighted tree
	// edge and pop in (old dist, id) order. A popped vertex keeps its
	// distance — as an upper bound a real path of c witnesses — if an
	// unmarked neighbour still offers a candidate no larger; otherwise it
	// is marked and its tree children queue up (a child over a removed edge
	// is not adjacent in c any more, but that edge is named, so it is a
	// seed already). One pass is enough: a supporter is strictly closer, so
	// it has been popped and decided, or never will be. A seed's prev can
	// move while its distance holds, so (5) re-derives it.
	seed := func(v int) {
		switch {
		case s.seen[v] == gen:
		case c.rowStart[v] == c.rowStart[v+1]:
			// No edge in c: nothing supports v, and nothing hangs off it.
			s.seen[v], s.mark[v] = gen, gen
			s.touched = append(s.touched, int32(v))
		default:
			s.seen[v] = gen
			h.push(heapItem{v: v, cost: r.d(v)})
			s.fix = append(s.fix, int32(v))
		}
	}
	for _, recs := range [2][]EdgeRecord{d.Removed, d.Reweighted} {
		for _, e := range recs {
			if int(r.p(e.V)) == e.U {
				seed(e.V)
			}
			if int(r.p(e.U)) == e.V {
				seed(e.U)
			}
		}
	}
	for h.Len() > 0 {
		it := h.pop()
		lo, hi := c.rowStart[it.v], c.rowStart[it.v+1]
		supported := false
		for e := lo; e < hi; e++ {
			if u := c.to[e]; s.mark[u] != gen && r.d(int(u))+c.wt[e] <= it.cost {
				supported = true
				break
			}
		}
		if supported {
			continue
		}
		s.mark[it.v] = gen
		s.touched = append(s.touched, int32(it.v))
		for e := lo; e < hi; e++ {
			if ch := c.to[e]; r.p(int(ch)) == int32(it.v) && s.seen[ch] != gen {
				s.seen[ch] = gen
				h.push(heapItem{v: int(ch), cost: r.d(int(ch))})
			}
		}
	}

	// (2) Re-settle. Every marked vertex restarts from its best candidate
	// over unmarked neighbours (+Inf if none: an isolated vertex needs no
	// case of its own). Marked cells are only written here, unmarked ones
	// only read, so the order does not matter. Here, in (3) and in (4) a
	// dead end is written and not queued, as in DijkstraInto: relaxing it
	// back cannot lower its neighbour, whose distance only falls from here.
	for _, v := range s.touched {
		best := Inf
		for e := c.rowStart[v]; e < c.rowStart[v+1]; e++ {
			if u := c.to[e]; s.mark[u] != gen {
				if nd := r.d(int(u)) + c.wt[e]; nd < best {
					best = nd
				}
			}
		}
		r.setDist(int(v), best)
		if best < Inf && !c.dead[v] {
			h.push(heapItem{v: int(v), cost: best})
		}
	}

	// (3) Gains. An edge that appeared or got cheaper can lower only what
	// lies across it: relax each restored or re-weighted record both ways
	// at its weight, and queue the head it strictly improves; the drain
	// carries the gain on from there. A tie that wins the canonical
	// (dist, id) rule moves prev[head] without moving a distance, so (5)
	// re-derives it. Removed records queue nothing here: a marked vertex
	// is queued already.
	for _, recs := range [2][]EdgeRecord{d.Restored, d.Reweighted} {
		for _, e := range recs {
			c.gain(r, s, e.U, e.V, e.Weight)
			c.gain(r, s, e.V, e.U, e.Weight)
		}
	}

	// (4) One ordinary Dijkstra drain over all of c. Every cell is an upper
	// bound witnessed by a path, and every edge that could still lower its
	// head starts at a queued vertex — a marked one or a head (3) lowered —
	// so the drain ends at the fixed point. prev is left alone: (5) derives
	// it from the final distances.
	for h.Len() > 0 {
		it := h.pop()
		if it.cost > r.d(it.v) {
			continue // stale entry
		}
		settled++
		for e := c.rowStart[it.v]; e < c.rowStart[it.v+1]; e++ {
			to := c.to[e]
			if nd := it.cost + c.wt[e]; nd < r.d(int(to)) {
				r.setDist(int(to), nd)
				s.touched = append(s.touched, to)
				if !c.dead[to] {
					h.push(heapItem{v: int(to), cost: nd})
				}
			}
		}
	}

	// (5) Predecessors. The canonical prev of y reads dist[y], y's edges
	// and its neighbours' distances. Outside the seeds and tie heads it can
	// move only at a written cell v, or at a neighbour y of one that v led
	// (prev[y] == v) or that v is now tight for: a neighbour that was tight
	// and lost nothing, or was neither, keeps its prev.
	for _, v := range s.fix {
		prevCells += c.canonicalPrev(src, v, r, s)
	}
	for _, v := range s.touched {
		prevCells += c.canonicalPrev(src, v, r, s)
		dv := r.d(int(v))
		for e := c.rowStart[v]; e < c.rowStart[v+1]; e++ {
			y := c.to[e]
			if r.p(int(y)) == v || dv < Inf && dv+c.wt[e] == r.d(int(y)) {
				prevCells += c.canonicalPrev(src, y, r, s)
			}
		}
	}
	return settled, prevCells
}

// gain relaxes the edge u→v of weight w in step (3) of repairRow: a
// strict improvement writes v and queues it, an equal candidate that
// precedes v's incumbent predecessor in (dist, id) order marks v's prev
// for re-derivation. A dead end is written, not queued.
func (c *CSR) gain(r *cowRow, s *repairScratch, u, v int, w float64) {
	du := r.d(u)
	if du == Inf {
		return // an unreachable tail offers nothing
	}
	switch nd, dv := du+w, r.d(v); {
	case nd < dv:
		r.setDist(v, nd)
		s.touched = append(s.touched, int32(v))
		if !c.dead[v] {
			s.sssp.heap.push(heapItem{v: v, cost: nd})
		}
	case nd == dv:
		if p := r.p(v); p >= 0 {
			if dp := r.d(int(p)); du < dp || du == dp && int32(u) < p {
				s.fix = append(s.fix, int32(v))
			}
		}
	}
}

// canonicalPrev sets prev[v] by the canonical rule (see the top of the
// file), once per row; it returns 1 when it did the work.
func (c *CSR) canonicalPrev(src int, v int32, r *cowRow, s *repairScratch) int {
	if s.seen[v] == s.gen+1 {
		return 0
	}
	s.seen[v] = s.gen + 1
	if int(v) == src {
		return 0 // prev[src] is -1 in every row
	}
	best, bestD := int32(-1), Inf
	if dv := r.d(int(v)); dv < Inf {
		for e := c.rowStart[v]; e < c.rowStart[v+1]; e++ {
			u := c.to[e]
			if du := r.d(int(u)); du+c.wt[e] == dv && (du < bestD || du == bestD && u < best) {
				best, bestD = u, du
			}
		}
	}
	r.setPrev(int(v), best)
	return 1
}
