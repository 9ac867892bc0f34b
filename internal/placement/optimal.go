package placement

import (
	"context"
	"math"
	"sync/atomic"

	"vnfopt/internal/bnb"
	"vnfopt/internal/model"
)

// searchExpansions accumulates branch-and-bound node expansions across
// every Optimal search in the process, batched once per Place call (one
// atomic add per search, nothing on the hot path). Exposed so an
// observability layer can publish it as a gauge.
var searchExpansions atomic.Int64

// SearchExpansions returns the process-wide total of Optimal
// (Algorithm 4) node expansions.
func SearchExpansions() int64 { return searchExpansions.Load() }

// Optimal is the paper's Algorithm 4: exhaustive search over all ordered
// placements of the n VNFs on distinct switches, run on the shared
// branch-and-bound kernel (internal/bnb) so the k=4/k=8 benchmark
// configurations stay tractable:
//
//   - partial cost = ingress[p(1)] + Λ·chain-so-far;
//   - lower bound  = partial + the cheapest completion Λ·(chain left) +
//     egress, over switch sequences with no switch twice in a row (the
//     kernel's relaxation, internal/bnb);
//   - children expanded nearest-first.
//
// The paper's complexity O(|V|^n) makes Algorithm 4 a small-instance
// benchmark only; NodeBudget turns it into an anytime search that reports
// whether optimality was proven, and the context of PlaceProblem makes
// unbounded searches cancellable.
type Optimal struct {
	// NodeBudget caps search expansions; 0 = unlimited.
	NodeBudget int
	// Seed optionally provides an incumbent (e.g. the DP solution) so
	// pruning is effective immediately. Nil means start from +Inf. It is
	// consulted through Solve, on the search's own Problem and context.
	Seed Solver
}

// Name implements Solver.
func (Optimal) Name() string { return "Optimal" }

// Place implements Solver. Callers that need the proven-optimality flag
// should use PlaceProven.
func (a Optimal) Place(d *model.PPDC, w model.Workload, sfc model.SFC) (model.Placement, float64, error) {
	p, c, _, err := a.PlaceProven(d, w, sfc)
	return p, c, err
}

// PlaceProblem implements ProblemSolver: the search polls ctx every
// 1024 node expansions and, once cancelled, stops and returns the best
// incumbent found so far together with ctx.Err(). The incumbent may be
// nil when cancellation struck before any complete placement was
// evaluated and no Seed was configured.
func (a Optimal) PlaceProblem(ctx context.Context, pr model.Problem) (model.Placement, float64, error) {
	p, c, _, err := a.placeProven(ctx, pr)
	return p, c, err
}

// PlaceProven is Place plus a flag reporting whether the search completed
// within its node budget (i.e. the result is provably optimal).
func (a Optimal) PlaceProven(d *model.PPDC, w model.Workload, sfc model.SFC) (model.Placement, float64, bool, error) {
	pr, err := d.NewProblem(w, sfc)
	if err != nil {
		return nil, 0, false, err
	}
	return a.placeProven(context.Background(), pr)
}

// placeProven is the full form: anytime search with node budget,
// proven-optimality flag, and cooperative cancellation. On cancellation
// the incumbent (possibly nil) is returned with proven == false and
// err == ctx.Err(). An already-cancelled context returns before the
// Seed solver is consulted.
func (a Optimal) placeProven(ctx context.Context, pr model.Problem) (model.Placement, float64, bool, error) {
	d, w, sfc := pr.PPDC, pr.Workload, pr.SFC
	if err := checkInputs(d, w, sfc); err != nil {
		return nil, 0, false, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, false, err
	}
	n := sfc.Len()
	in, eg := pr.Cache.EndpointCosts()
	switch n {
	case 1:
		p, c := bestSingle(d, w, in, eg)
		return p, c, true, nil
	case 2:
		p, c := bestPair(d, w, in, eg)
		return p, c, true, nil
	}

	lambda := w.TotalRate()
	sw := d.Topo.Switches

	bestCost := math.Inf(1)
	var best model.Placement
	if a.Seed != nil {
		if p, c, err := Solve(ctx, a.Seed, pr); err == nil {
			best = p.Clone()
			bestCost = c
		}
	}

	res, err := bnb.Search(ctx, bnb.Spec{
		N:   n,
		K:   len(sw),
		Cap: d.SwitchCap(),
		StepCost: func(last, v, depth int) float64 {
			if depth == 0 {
				return in[sw[v]] // ingress cost for p(1)
			}
			return lambda * d.APSP.Cost(sw[last], sw[v])
		},
		LeafCost:   func(last int) float64 { return eg[sw[last]] },
		SeedCost:   bestCost,
		NodeBudget: a.NodeBudget,
	})
	searchExpansions.Add(res.Expansions)
	if res.Path != nil {
		best = make(model.Placement, n)
		for j, v := range res.Path {
			best[j] = sw[v]
		}
		bestCost = res.Cost
	}
	if err != nil {
		return best, bestCost, false, err
	}
	if best == nil {
		return nil, 0, false, errNoPlacement(n)
	}
	return best, bestCost, res.Proven, nil
}
