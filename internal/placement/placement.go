// Package placement implements the paper's TOP algorithms: the DP-based
// Algorithm 3 (all ingress/egress pairs around an (n−2)-stroll), the
// exhaustive Algorithm 4, and the two comparison baselines Steering [55]
// and Greedy [34]. TOP-1 (single flow) convenience solvers used by the
// Fig. 7 experiment live in top1.go.
package placement

import (
	"context"
	"fmt"
	"math"

	"vnfopt/internal/model"
)

// Solver is one TOP algorithm: given a PPDC, a workload, and an SFC, it
// returns a placement and its total communication cost C_a(p) (Eq. 1).
type Solver interface {
	// Name identifies the algorithm in experiment tables.
	Name() string
	// Place computes a placement for the SFC.
	Place(d *model.PPDC, w model.Workload, sfc model.SFC) (model.Placement, float64, error)
}

// ProblemSolver is a Solver that reads a prepared model.Problem — cost
// cache included — instead of aggregating the workload again, under a
// context. Every TOP algorithm a vnfoptd scenario can run implements it;
// call it through Solve.
type ProblemSolver interface {
	Solver
	// PlaceProblem is Place on pr. A solver that searches polls ctx and,
	// once it is cancelled, returns the best incumbent found so far
	// together with ctx.Err().
	PlaceProblem(ctx context.Context, pr model.Problem) (model.Placement, float64, error)
}

// Solve runs s on pr: through PlaceProblem when s has it, so pr's cache
// and ctx reach the algorithm (and, through it, any solver nested inside
// it), else through Place on pr's fabric, workload and SFC.
func Solve(ctx context.Context, s Solver, pr model.Problem) (model.Placement, float64, error) {
	if ps, ok := s.(ProblemSolver); ok {
		return ps.PlaceProblem(ctx, pr)
	}
	return s.Place(pr.PPDC, pr.Workload, pr.SFC)
}

// checkInputs validates the common preconditions of all solvers.
func checkInputs(d *model.PPDC, w model.Workload, sfc model.SFC) error {
	if d == nil {
		return fmt.Errorf("placement: nil PPDC")
	}
	n := sfc.Len()
	if n < 1 {
		return fmt.Errorf("placement: SFC must contain at least one VNF")
	}
	if c := d.SwitchCap(); c > 0 && n > c*len(d.Topo.Switches) {
		return fmt.Errorf("placement: %d VNFs exceed %d switches × capacity %d", n, len(d.Topo.Switches), c)
	}
	if err := w.Validate(d); err != nil {
		return err
	}
	return nil
}

// bestSingle solves n = 1: place the only VNF at the switch minimizing
// ingress + egress cost. This is one of the paper's "simple solutions for
// cases of n = 1, 2". The returned cost is re-evaluated through the
// scalar model so reported costs stay exactly C_a regardless of which
// (scalar or aggregated) arrays drove the argmin.
func bestSingle(d *model.PPDC, w model.Workload, in, eg []float64) (model.Placement, float64) {
	best := math.Inf(1)
	var bestS int
	for _, s := range d.Topo.Switches {
		if c := in[s] + eg[s]; c < best {
			best = c
			bestS = s
		}
	}
	p := model.Placement{bestS}
	return p, d.CommCost(w, p)
}

// bestPair solves n = 2 exactly: all ordered switch pairs.
func bestPair(d *model.PPDC, w model.Workload, in, eg []float64) (model.Placement, float64) {
	lambda := w.TotalRate()
	best := math.Inf(1)
	var p model.Placement
	capOne := d.SwitchCap() == 1
	for _, a := range d.Topo.Switches {
		for _, b := range d.Topo.Switches {
			if a == b && capOne {
				continue
			}
			if c := in[a] + eg[b] + lambda*d.APSP.Cost(a, b); c < best {
				best = c
				p = model.Placement{a, b}
			}
		}
	}
	return p, d.CommCost(w, p)
}
