package stroll

import (
	"fmt"
	"math"
)

// DPTable is the incremental dynamic program of the paper's Algorithm 2,
// computed toward a fixed target t: c[e][u] is the minimum cost of a u→t
// walk with exactly e edges, under the rule that the walk never passes
// through t before its final edge and never immediately backtracks
// (u → v → u is forbidden, paper line 6).
//
// The table is shared across sources: one DPTable answers stroll queries
// from *every* source toward t, which is what makes the paper's Algorithm 3
// (all ingress/egress pairs) affordable on k=16 fat trees.
//
// Only the top layer is filled lazily. A query at r edges reads layer r at
// its source alone and the layers below along its walk, so layers 1..r−1
// are full and layer r holds just the cells asked for; a ramp past r
// first completes layer r. Every cell is computed by the same loop from
// the same full layer below, so which cells a table holds never changes
// their bits — only how many get computed.
type DPTable struct {
	cost Closure
	t    int
	c    [][]float64 // c[e][u], e >= 1
	succ [][]int32   // succ[e][u]: next node after u on the optimal walk
	// done[u] reports whether cell u of the top layer len(c)−1 is filled;
	// nil when the top layer is full.
	done []bool
}

// NewDPTable prepares the 1-edge base case toward target t. It reads
// the target's column cell by cell and copies no row.
func NewDPTable(cost Closure, t int) *DPTable {
	nv := cost.Len()
	base := make([]float64, nv)
	bSucc := make([]int32, nv)
	for u := range nv {
		base[u], bSucc[u] = cost.Cost(u, t), int32(t)
	}
	base[t], bSucc[t] = math.Inf(1), -1
	return &DPTable{
		cost: cost,
		t:    t,
		c:    [][]float64{nil, base}, // index 0 unused
		succ: [][]int32{nil, bSucc},
	}
}

// reach makes cell s of layer e available: layers below e are completed,
// and layer e, if it is new or still the partial top, gets cell s.
func (tb *DPTable) reach(e, s int) {
	nv := tb.cost.Len()
	for top := len(tb.c) - 1; top < e; top++ {
		for u, ok := range tb.done { // nil while layer 1 is the top
			if !ok {
				tb.fill(top, u)
			}
		}
		tb.c = append(tb.c, make([]float64, nv))
		tb.succ = append(tb.succ, make([]int32, nv))
		if tb.done == nil {
			tb.done = make([]bool, nv)
		} else {
			clear(tb.done)
		}
	}
	if tb.done != nil && e == len(tb.c)-1 && !tb.done[s] {
		tb.fill(e, s)
	}
}

// fill computes cell u of layer e from the full layer e−1.
func (tb *DPTable) fill(e, u int) {
	prevC, prevS, row := tb.c[e-1], tb.succ[e-1], tb.cost.Row(u)
	best := math.Inf(1)
	bestV := int32(-1)
	for v, c := range row {
		// v is the walk's next hop: not u itself, not the target (t only
		// terminates walks), and not an immediate backtrack (the hop
		// after v must not return to u).
		if v == u || v == tb.t || int(prevS[v]) == u {
			continue
		}
		if pc := prevC[v]; !math.IsInf(pc, 1) {
			if cand := c + pc; cand < best {
				best = cand
				bestV = int32(v)
			}
		}
	}
	tb.c[e][u] = best
	tb.succ[e][u] = bestV
	tb.done[u] = true
}

// walk traces the optimal e-edge walk from s. It returns nil when no such
// walk exists.
func (tb *DPTable) walk(s, e int) []int {
	if math.IsInf(tb.c[e][s], 1) {
		return nil
	}
	out := make([]int, 0, e+1)
	out = append(out, s)
	cur := s
	for k := e; k >= 1; k-- {
		cur = int(tb.succ[k][cur])
		out = append(out, cur)
	}
	return out
}

// Stroll answers one query: the cheapest s→t walk found by the edge-count
// DP that visits at least n distinct intermediates. maxEdges caps the edge
// budget ramp (pass 0 for the default n+9). It mirrors Algorithm 2's outer
// loop: start at r = n+1 edges and increment until the traced walk covers
// n distinct nodes.
//
// Algorithm 2 leaves one case open: on some inputs the minimum-cost
// r-edge walk keeps cycling through already-visited cheap nodes no matter
// how far r ramps (the no-immediate-backtrack rule only forbids 2-cycles).
// When the ramp exhausts maxEdges, the best walk seen is completed by
// cheapest insertion of the missing distinct nodes — a metric-safe repair
// marked by Result.Repaired.
func (tb *DPTable) Stroll(s, n, maxEdges int) (Result, error) {
	if maxEdges <= 0 {
		maxEdges = n + 9
	}
	r := n + 1
	if r < 1 {
		r = 1
	}
	var bestWalk []int // walk with the most distinct intermediates so far
	bestDistinct := -1
	for ; r <= maxEdges; r++ {
		tb.reach(r, s)
		w := tb.walk(s, r)
		if w == nil {
			continue
		}
		vis := distinctIntermediates(w, s, tb.t)
		if len(vis) >= n {
			return Result{
				Cost:    tb.c[r][s],
				Walk:    w,
				Visited: vis[:n],
			}, nil
		}
		if len(vis) > bestDistinct {
			bestDistinct = len(vis)
			bestWalk = w
		}
	}
	if bestWalk == nil {
		return Result{}, fmt.Errorf("stroll: DP found no s-t walk at all within %d edges", maxEdges)
	}
	walk, err := insertMissing(tb.cost, bestWalk, s, tb.t, n)
	if err != nil {
		return Result{}, err
	}
	vis := distinctIntermediates(walk, s, tb.t)
	return Result{
		Cost:     walkCost(tb.cost, walk),
		Walk:     walk,
		Visited:  vis[:n],
		Repaired: true,
	}, nil
}

// insertMissing grows the walk's distinct intermediate count to n by
// repeatedly inserting the globally cheapest (node, position) pair —
// cheapest-insertion on the metric closure.
func insertMissing(cost Closure, walk []int, s, t, n int) ([]int, error) {
	w := append([]int(nil), walk...)
	inWalk := make(map[int]bool, len(w))
	for _, v := range w {
		inWalk[v] = true
	}
	distinct := len(distinctIntermediates(w, s, t))
	for distinct < n {
		bestDelta := math.Inf(1)
		bestV, bestPos := -1, -1
		for v := range cost.Len() {
			if v == s || v == t || inWalk[v] {
				continue
			}
			for i := 0; i+1 < len(w); i++ {
				row := cost.Row(w[i])
				delta := row[v] + cost.Cost(v, w[i+1]) - row[w[i+1]]
				if delta < bestDelta {
					bestDelta = delta
					bestV, bestPos = v, i
				}
			}
		}
		if bestV < 0 {
			return nil, fmt.Errorf("stroll: cannot reach %d distinct nodes (only %d available)", n, distinct)
		}
		w = append(w, 0)
		copy(w[bestPos+2:], w[bestPos+1:])
		w[bestPos+1] = bestV
		inWalk[bestV] = true
		distinct++
	}
	return w, nil
}

// DP solves one instance with the paper's Algorithm 2. For repeated
// queries against the same target prefer NewDPTable + Stroll.
func DP(in Instance) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	return NewDPTable(Matrix(in.Cost), in.T).Stroll(in.S, in.N, 0)
}
