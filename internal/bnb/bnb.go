// Package bnb is the shared branch-and-bound kernel behind every exact
// search in the library: placement.Optimal (Algorithm 4),
// migration.Exhaustive (Algorithm 6), and the stroll exhaustive solver
// all enumerate ordered tuples of candidates with an admissible lower
// bound, an optional node budget, and cooperative cancellation. The
// kernel factors that recursion out once, allocation-free on the hot
// path.
//
// # Search shape
//
// A Spec describes choosing one candidate (a dense id in [0, K)) per
// slot 0..N-1, where no candidate may appear more than Cap times
// (Cap <= 0 = unlimited). Branches accumulate StepCost, are pruned
// against SeedCost (or the best leaf so far), and leaves close with
// LeafCost. Children are expanded cheapest step first (ties in
// candidate-id order), which both tightens the incumbent early and
// fixes the visit order.
//
// # Bound and rounding
//
// The kernel derives its bound from the Spec before the first
// expansion: tail[d][v], the least cost of slots d+1..N-1 plus the leaf
// after v fills slot d, over tuples that never put one candidate in two
// consecutive slots when Cap == 1 and over all tuples otherwise. Every
// feasible completion is one of them, so the bound is admissible.
// Relaxed reads the table's root, for callers that want the
// relaxation's optimum itself (migration.Bound). The table sums
// right to left and the search left to right, and a tight bound sits
// within ulps of the optimum, so with m = 2(N+1)·2⁻⁵³·|best|
// (0 while best is ±Inf) a branch is pruned when partial + tail >=
// best − m, and a leaf replaces the incumbent only below best − 2m (it
// used to be "strictly lower", which let the bound's rounding pick among
// optima equal up to 2 ulps). Every leaf that could replace the
// incumbent then survives the bound, so one Spec has one result at any
// node budget: the first in depth-first visit order among optima within
// 2m, or the seed when it is within 2m. The rule needs costs >= 0.
package bnb

import (
	"context"
	"math"
)

// ctxCheckMask throttles context polls to one ctx.Err() call per
// ctxCheckMask+1 node expansions, matching the historical cadence of the
// solvers this kernel replaced (first poll after 1024 expansions; the
// pre-search poll is the caller's).
const ctxCheckMask = 1023

// Spec defines one ordered-tuple branch-and-bound search. Every step,
// leaf and seed cost must be >= 0 (see the package doc).
type Spec struct {
	// N is the tuple length (slots to fill); must be >= 1.
	N int
	// K is the candidate-universe size; candidates are dense ids [0, K).
	K int
	// Cap bounds how many slots one candidate may occupy; <= 0 = unlimited.
	Cap int
	// StepCost is the cost of extending a partial tuple ending in
	// candidate last (or the root, at depth 0 — last is then undefined)
	// with candidate v at slot depth.
	StepCost func(last, v, depth int) float64
	// LeafCost closes a complete tuple ending in candidate last.
	LeafCost func(last int) float64
	// SeedCost is the incumbent cost the search must beat by more than
	// the rounding margin; +Inf when the caller has no seed.
	SeedCost float64
	// NodeBudget caps node expansions (0 = unlimited). The search stops
	// exactly at the budget, and Proven is then false.
	NodeBudget int
}

// Result is the outcome of a Search.
type Result struct {
	// Cost is the best complete-tuple cost found, or SeedCost when no
	// tuple beat the seed (Path is then nil).
	Cost float64
	// Path is the best tuple (candidate ids, length N), nil when the
	// seed was never beaten.
	Path []int
	// Proven reports whether the search ran to completion (no budget
	// exhaustion, no cancellation): the result is then the global
	// optimum over all feasible tuples and the seed, up to 2m.
	Proven bool
	// Expansions is the number of node expansions performed.
	Expansions int64
}

// Search runs the branch-and-bound described by s. On cancellation it
// returns the incumbent found so far with Proven == false alongside
// ctx.Err(); callers are expected to have polled ctx once before calling
// (the kernel's first poll happens after 1024 expansions).
func Search(ctx context.Context, s Spec) (Result, error) {
	q := &search{
		spec:   &s,
		ctx:    ctx,
		used:   make([]int16, s.K),
		path:   make([]int32, s.N),
		kids:   make([][]cand, s.N),
		tail:   relax(&s),
		budget: int64(s.NodeBudget),
		best:   make([]int32, s.N),
	}
	for i := range q.kids {
		q.kids[i] = make([]cand, 0, s.K)
	}
	q.setIncumbent(s.SeedCost)
	q.rec(-1, 0, 0)
	res := Result{
		Cost:       q.bestCost,
		Proven:     !q.exhausted && !q.cancelled,
		Expansions: q.nodes,
	}
	if q.found {
		res.Path = toInts(q.best)
	}
	if q.cancelled {
		return res, ctx.Err()
	}
	return res, nil
}

// relax returns the bound table of s, flat (tail[d*K+v]), in O(N·K²)
// step costs: tail[N-1][v] = LeafCost(v) and tail[d][v] =
// min_u StepCost(v, u, d+1) + tail[d+1][u], with u ≠ v when Cap == 1.
func relax(s *Spec) []float64 {
	k := s.K
	tail := make([]float64, s.N*k)
	for v := range k {
		tail[(s.N-1)*k+v] = s.LeafCost(v)
	}
	for d := s.N - 2; d >= 0; d-- {
		row, next := tail[d*k:(d+1)*k], tail[(d+1)*k:(d+2)*k]
		for v := range row {
			lo := math.Inf(1)
			for u, t := range next {
				if s.Cap == 1 && u == v {
					continue
				}
				if c := s.StepCost(v, u, d+1) + t; c < lo {
					lo = c
				}
			}
			row[v] = lo
		}
	}
	return tail
}

// Relaxed returns the optimum of s's relaxation, the root of the table
// Search bounds with: min_v StepCost(−1, v, 0) + tail[0][v], summed
// right to left. It is +Inf when no relaxed tuple exists, and ignores
// SeedCost and NodeBudget.
func Relaxed(s Spec) float64 {
	tail := relax(&s)
	root := math.Inf(1)
	for v, t := range tail[:s.K] {
		if c := s.StepCost(-1, v, 0) + t; c < root {
			root = c
		}
	}
	return root
}

// cand is one feasible child: candidate id and its step cost. 16 bytes,
// so per-depth candidate arrays stay cache-dense.
type cand struct {
	v int32
	c float64
}

// search is the state of one Search call: the capacity vector indexed
// by candidate id, the current path and one preallocated candidate
// array per depth — after construction the expansion loop performs no
// heap allocation — plus the budget accounting and the incumbent.
type search struct {
	spec *Spec
	ctx  context.Context
	used []int16
	path []int32
	kids [][]cand
	tail []float64

	budget    int64
	nodes     int64
	exhausted bool
	cancelled bool
	bestCost  float64
	m         float64 // rounding margin of bestCost
	best      []int32
	found     bool
}

// setIncumbent makes c the cost to beat, with its rounding margin.
func (q *search) setIncumbent(c float64) {
	q.bestCost, q.m = c, 0
	if !math.IsInf(c, 0) {
		q.m = float64(2*(q.spec.N+1)) * 0x1p-53 * math.Abs(c)
	}
}

// children fills kids[depth] with the feasible candidates below a node
// ending in last, sorted ascending by step cost. The insertion sort is
// stable, so equal-cost candidates keep ascending id order.
func (q *search) children(last int32, depth int) []cand {
	s := q.spec
	kids := q.kids[depth][:0]
	for v := 0; v < s.K; v++ {
		if s.Cap > 0 && int(q.used[v]) >= s.Cap {
			continue
		}
		kids = append(kids, cand{v: int32(v), c: s.StepCost(int(last), v, depth)})
	}
	for i := 1; i < len(kids); i++ {
		k := kids[i]
		j := i - 1
		for j >= 0 && kids[j].c > k.c {
			kids[j+1] = kids[j]
			j--
		}
		kids[j+1] = k
	}
	q.kids[depth] = kids
	return kids
}

func toInts(p []int32) []int {
	out := make([]int, len(p))
	for i, v := range p {
		out[i] = int(v)
	}
	return out
}

func (q *search) rec(last int32, depth int, cur float64) {
	q.nodes++
	if q.budget > 0 && q.nodes > q.budget {
		q.exhausted = true
		return
	}
	if q.nodes&ctxCheckMask == 0 && q.ctx.Err() != nil {
		q.cancelled = true
		return
	}
	s := q.spec
	if depth == s.N {
		if total := cur + s.LeafCost(int(last)); total < q.bestCost-2*q.m {
			q.setIncumbent(total)
			q.found = true
			copy(q.best, q.path)
		}
		return
	}
	tail := q.tail[depth*s.K:]
	for _, ch := range q.children(last, depth) {
		nc := cur + ch.c
		if nc+tail[ch.v] >= q.bestCost-q.m {
			continue
		}
		q.used[ch.v]++
		q.path[depth] = ch.v
		q.rec(ch.v, depth+1, nc)
		q.used[ch.v]--
		if q.exhausted || q.cancelled {
			return
		}
	}
}
