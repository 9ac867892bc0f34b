package stroll

import (
	"context"
	"sync/atomic"

	"vnfopt/internal/bnb"
)

// In the metric closure an optimal n-stroll can always be taken as a
// *simple path* s → x_1 → … → x_n → t over n distinct intermediates:
// shortcutting past a repeated vertex never increases cost under the
// triangle inequality. Exhaustive therefore enumerates ordered n-tuples
// of intermediates on the shared branch-and-bound kernel (internal/bnb):
//
//   - upper bound seeded by the DP solution (Algorithm 2);
//   - lower bound: cost so far + step + the cheapest walk on to t with
//     no intermediate twice in a row (the kernel's relaxation,
//     internal/bnb; admissible in any cost matrix);
//   - children visited cheapest-extension-first to tighten the incumbent
//     early.
//
// A node budget caps the search; when exhausted the best incumbent is
// returned with Optimal=false. exhaustiveContext adds cooperative
// cancellation with the same incumbent semantics.

// searchExpansions accumulates node expansions across every Exhaustive
// search in the process, batched once per call.
var searchExpansions atomic.Int64

// SearchExpansions returns the process-wide total of exhaustive-stroll
// node expansions.
func SearchExpansions() int64 { return searchExpansions.Load() }

// Exhaustive finds a provably optimal n-stroll (paper Algorithms 4/6 use
// this as their inner engine) unless nodeBudget search-tree expansions
// (0 = unlimited) run out first: the incumbent is then returned with
// Result.Optimal == false.
func Exhaustive(in Instance, nodeBudget int) (Result, error) {
	return exhaustiveContext(context.Background(), in, nodeBudget)
}

// exhaustiveContext is Exhaustive under a context: the search polls ctx
// every 1024 expansions and, once cancelled, returns the best incumbent
// found so far (at worst the DP seed) with Optimal == false alongside
// ctx.Err().
func exhaustiveContext(ctx context.Context, in Instance, nodeBudget int) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	nv := len(in.Cost)

	// Seed the incumbent with the DP solution so pruning bites from the
	// first branch.
	best, err := DP(in)
	if err != nil {
		return Result{}, err
	}
	if in.N == 0 {
		direct := Result{
			Cost:    in.Cost[in.S][in.T],
			Walk:    []int{in.S, in.T},
			Visited: []int{},
			Optimal: true,
		}
		if direct.Cost <= best.Cost {
			return direct, nil
		}
		best.Optimal = true
		return best, nil
	}

	// Candidate intermediates: everything but the terminals.
	cands := make([]int, 0, nv-2)
	for v := 0; v < nv; v++ {
		if v != in.S && v != in.T {
			cands = append(cands, v)
		}
	}
	res, err := bnb.Search(ctx, bnb.Spec{
		N:   in.N,
		K:   len(cands),
		Cap: 1,
		StepCost: func(last, v, depth int) float64 {
			if depth == 0 {
				return in.Cost[in.S][cands[v]]
			}
			return in.Cost[cands[last]][cands[v]]
		},
		LeafCost:   func(last int) float64 { return in.Cost[cands[last]][in.T] },
		SeedCost:   best.Cost,
		NodeBudget: nodeBudget,
	})
	searchExpansions.Add(res.Expansions)

	bestCost := best.Cost
	bestPath := append([]int(nil), best.Walk...)
	if res.Path != nil {
		bestCost = res.Cost
		bestPath = make([]int, 0, in.N+2)
		bestPath = append(bestPath, in.S)
		for _, v := range res.Path {
			bestPath = append(bestPath, cands[v])
		}
		bestPath = append(bestPath, in.T)
	}
	vis := distinctIntermediates(bestPath, in.S, in.T)
	if len(vis) > in.N {
		vis = vis[:in.N]
	}
	out := Result{
		Cost:    bestCost,
		Walk:    bestPath,
		Visited: vis,
		Optimal: res.Proven && err == nil,
	}
	if err != nil {
		return out, err
	}
	return out, nil
}
