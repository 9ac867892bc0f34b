// Package stroll solves the n-stroll problem at the core of the paper's
// TOP formulation: given a complete metric graph (the metric closure G” of
// the PPDC), two terminals s and t, and an integer n, find a minimum-cost
// s-t walk that visits at least n distinct nodes other than s and t.
//
// Three solvers are provided, mirroring the paper's Table II:
//
//   - DP        — the paper's Algorithm 2: an exact dynamic program over
//     walk *edge counts* with the no-immediate-backtrack rule, iterating
//     the edge budget upward until n distinct intermediates appear.
//   - Exhaustive — branch-and-bound over ordered switch tuples; exact
//     (in the metric closure an optimal stroll can always be taken as a
//     simple path, so tuple enumeration is exhaustive).
//   - PrimalDual — Algorithm 1's primal-dual family: a Goemans-Williamson
//     prize-collecting moat growth with a Lagrangean (binary) search on the
//     uniform node prize, then double-and-shortcut. Constant-factor in
//     spirit; the paper itself only plots its 2+ε guarantee.
package stroll

import (
	"fmt"
	"math"
)

// Instance is one n-stroll problem on a complete metric graph.
type Instance struct {
	// Cost is the dense symmetric cost matrix of the metric closure;
	// Cost[u][v] is the shortest-path cost between closure vertices u
	// and v. All entries must be finite and non-negative.
	Cost [][]float64
	// S and T are the terminal indices (may be equal for the n-tour case).
	S, T int
	// N is the required number of distinct intermediate nodes.
	N int
}

// Result is a solved stroll.
type Result struct {
	// Cost is the total walk cost.
	Cost float64
	// Walk is the full vertex sequence from S to T, inclusive.
	Walk []int
	// Visited lists the first N distinct intermediate nodes in visit
	// order — the switches that receive f_1..f_N.
	Visited []int
	// Optimal reports whether the solver proved optimality (Exhaustive
	// within its node budget; DP and PrimalDual always report false even
	// when they happen to be optimal).
	Optimal bool
	// Repaired reports that the DP's edge-budget ramp stalled (the
	// min-cost walk kept cycling through already-visited nodes — a case
	// the paper's Algorithm 2 does not address) and the walk was
	// completed by cheapest insertion of the missing distinct nodes.
	Repaired bool
}

// Validate checks instance well-formedness: square finite matrix,
// terminals in range, and enough non-terminal nodes to host N VNFs.
func (in Instance) Validate() error {
	nv := len(in.Cost)
	if nv == 0 {
		return fmt.Errorf("stroll: empty cost matrix")
	}
	for i, row := range in.Cost {
		if len(row) != nv {
			return fmt.Errorf("stroll: cost matrix row %d has %d entries, want %d", i, len(row), nv)
		}
		for j, c := range row {
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("stroll: invalid cost[%d][%d] = %v", i, j, c)
			}
		}
	}
	if in.S < 0 || in.S >= nv || in.T < 0 || in.T >= nv {
		return fmt.Errorf("stroll: terminals (%d,%d) out of range [0,%d)", in.S, in.T, nv)
	}
	if in.S == in.T {
		// The paper's n-tour construction (Fig. 5) lists s and t as two
		// closure vertices even when they are the same host; callers
		// must duplicate the terminal, otherwise the DP's backtrack rule
		// would forbid legitimate final returns to t.
		return fmt.Errorf("stroll: S == T; duplicate the terminal vertex to pose an n-tour")
	}
	if in.N < 0 {
		return fmt.Errorf("stroll: negative n %d", in.N)
	}
	avail := nv - 2
	if in.N > avail {
		return fmt.Errorf("stroll: n=%d exceeds the %d available intermediate nodes", in.N, avail)
	}
	return nil
}

// Closure is the metric closure the DP reads: Row(u) holds the costs
// from u to each of the Len vertices, Cost(u, v) one of them. A view may
// copy a row out on its first Row, so a reader of one cell asks Cost.
type Closure interface {
	Len() int
	Row(u int) []float64
	Cost(u, v int) float64
}

// Matrix is a dense Closure: Matrix[u][v] is the cost from u to v.
type Matrix [][]float64

func (m Matrix) Len() int              { return len(m) }
func (m Matrix) Row(u int) []float64   { return m[u] }
func (m Matrix) Cost(u, v int) float64 { return m[u][v] }

// walkCost sums closure costs along a vertex sequence.
func walkCost(cost Closure, walk []int) float64 {
	s := 0.0
	for i := 0; i+1 < len(walk); i++ {
		s += cost.Row(walk[i])[walk[i+1]]
	}
	return s
}

// distinctIntermediates lists, in visit order, the distinct nodes of the
// walk other than s and t.
func distinctIntermediates(walk []int, s, t int) []int {
	seen := make(map[int]bool, len(walk))
	var out []int
	for _, v := range walk {
		if v == s || v == t || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}
