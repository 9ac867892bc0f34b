package migration

import (
	"context"
	"math"
	"sync/atomic"

	"vnfopt/internal/bnb"
	"vnfopt/internal/model"
)

// searchExpansions accumulates node expansions across every Exhaustive
// migration search in the process, batched once per Migrate call.
var searchExpansions atomic.Int64

// SearchExpansions returns the process-wide total of Exhaustive
// (Algorithm 6) node expansions.
func SearchExpansions() int64 { return searchExpansions.Load() }

// Exhaustive is the paper's Algorithm 6: search over all ordered
// distinct-switch migration targets m for the one minimizing C_t(p, m),
// run on the shared branch-and-bound kernel (internal/bnb). As with
// placement.Optimal, pruning and an optional node budget make it usable
// as a small-instance benchmark:
//
//	partial(depth j) = Σ_{i≤j} μ·c(p(i), m(i)) + ingress(m(1)) + Λ·chain-so-far
//	lower bound      = partial + the cheapest completion, μ and Λ terms
//	                   alike, over switch sequences with no switch twice
//	                   in a row (the kernel's relaxation, internal/bnb)
//
// The context of MigrateProblem makes unbounded searches cancellable.
type Exhaustive struct {
	// NodeBudget caps search expansions; 0 = unlimited.
	NodeBudget int
	// Seed optionally provides an incumbent migrator (e.g. MPareto{}). It
	// is consulted through Consult, on the search's own Problem and
	// context.
	Seed Migrator
}

// Name implements Migrator. (It once returned "Optimal", colliding with
// placement.Optimal in metric and benchmark labels.)
func (Exhaustive) Name() string { return "Exhaustive" }

// Migrate implements Migrator.
func (a Exhaustive) Migrate(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, error) {
	m, c, _, err := a.MigrateProven(d, w, sfc, p, mu)
	return m, c, err
}

// MigrateProblem implements ProblemMigrator: the search polls ctx every
// 1024 expansions and, once cancelled, returns the best incumbent found
// so far (at worst staying put) together with ctx.Err().
func (a Exhaustive) MigrateProblem(ctx context.Context, pr model.Problem, p model.Placement, mu float64) (model.Placement, float64, error) {
	m, c, _, err := a.migrateProven(ctx, pr, p, mu)
	return m, c, err
}

// MigrateProven is Migrate plus a flag reporting whether the search
// completed within its node budget.
func (a Exhaustive) MigrateProven(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, bool, error) {
	pr, err := d.NewProblem(w, sfc)
	if err != nil {
		return nil, 0, false, err
	}
	return a.migrateProven(context.Background(), pr, p, mu)
}

// migrateProven is the full form: anytime search with node budget,
// proven-optimality flag, and cooperative cancellation. On cancellation
// the incumbent is returned with proven == false and err == ctx.Err().
// An already-cancelled context returns before the Seed migrator is
// consulted.
func (a Exhaustive) migrateProven(ctx context.Context, pr model.Problem, p model.Placement, mu float64) (model.Placement, float64, bool, error) {
	d, w := pr.PPDC, pr.Workload
	if err := checkInputs(d, w, pr.SFC, p, mu); err != nil {
		return nil, 0, false, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, false, err
	}
	best := p.Clone() // staying put is always feasible
	bestCost := d.CommCost(w, p)
	if a.Seed != nil {
		if m, c, err := Consult(ctx, a.Seed, pr, p, mu); err == nil && c < bestCost {
			best = m.Clone()
			bestCost = c
		}
	}

	spec := tomSpec(pr, p, mu)
	spec.SeedCost, spec.NodeBudget = bestCost, a.NodeBudget
	res, err := bnb.Search(ctx, spec)
	searchExpansions.Add(res.Expansions)
	if res.Path != nil {
		best, bestCost = onSwitches(d, res.Path), res.Cost
	}
	if err != nil {
		return best, bestCost, false, err
	}
	return best, bestCost, res.Proven, nil
}

// tomSpec is TOM as a bnb.Spec, the one Exhaustive searches and Bound
// relaxes: slot j picks the switch (an index into d.Topo.Switches) hosting
// f_{j+1}, at μ·c(p(j+1), v) plus the ingress at slot 0 or Λ·c(u, v)
// after it, and the leaf adds the egress. At most SwitchCap() VNFs share
// a switch; there is no seed and no node budget.
func tomSpec(pr model.Problem, p model.Placement, mu float64) bnb.Spec {
	d := pr.PPDC
	in, eg := pr.Cache.EndpointCosts()
	lambda := pr.Workload.TotalRate()
	sw := d.Topo.Switches
	return bnb.Spec{
		N:   pr.SFC.Len(),
		K:   len(sw),
		Cap: d.SwitchCap(),
		StepCost: func(last, v, depth int) float64 {
			step := mu * d.APSP.Cost(p[depth], sw[v])
			if depth == 0 {
				return step + in[sw[v]]
			}
			return step + lambda*d.APSP.Cost(sw[last], sw[v])
		},
		LeafCost: func(last int) float64 { return eg[sw[last]] },
		SeedCost: math.Inf(1),
	}
}

// Bound lower-bounds the TOM optimum from p under pr at coefficient mu:
// the root of tomSpec's relaxation, which drops the switch capacity
// except that under SwitchCap() == 1 no switch hosts two consecutive
// VNFs (the consecutive-distinct form of Sallam et al.'s layered graph).
// It is +Inf when every target costs +Inf.
func Bound(pr model.Problem, p model.Placement, mu float64) (float64, error) {
	if err := checkInputs(pr.PPDC, pr.Workload, pr.SFC, p, mu); err != nil {
		return 0, err
	}
	return bnb.Relaxed(tomSpec(pr, p, mu)), nil
}

// onSwitches maps a tomSpec tuple of switch indices to its placement.
func onSwitches(d *model.PPDC, path []int) model.Placement {
	m := make(model.Placement, len(path))
	for j, v := range path {
		m[j] = d.Topo.Switches[v]
	}
	return m
}
