package migration

import (
	"context"
	"fmt"
	"math"

	"vnfopt/internal/model"
	"vnfopt/internal/placement"
)

// MPareto is the paper's Algorithm 5. It recomputes the traffic-optimal
// placement p' for the new rates (Algorithm 3), lays each VNF's shortest
// migration path S_j from p(j) to p'(j), forms the h_max parallel
// migration frontiers of Definition 2 (frontier i holds VNF j at the i-th
// switch of S_j, clamped at p'(j)), and returns the frontier minimizing
// C_t = C_b + C_a. The frontier sequence sweeps the Pareto trade-off
// between migration traffic C_b and communication traffic C_a; the paper
// shows the sweep is a Pareto front (Fig. 6(b)) and Theorem 5 makes the
// minimum-total-cost frontier optimal when that front is convex.
//
// Frontiers that would co-locate two VNFs on one switch mid-migration are
// skipped (unless the model allows colocation): both endpoints p and p'
// are always distinct-valid, so a feasible frontier always exists. The
// paper's pseudocode does not address such collisions.
type MPareto struct {
	// Placer computes the new traffic-optimal placement p'; nil uses the
	// paper's choice, Algorithm 3 (placement.DP).
	Placer placement.Solver
}

// Name implements Migrator.
func (MPareto) Name() string { return "mPareto" }

// Migrate implements Migrator.
func (a MPareto) Migrate(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, error) {
	pr, err := d.NewProblem(w, sfc)
	if err != nil {
		return nil, 0, err
	}
	return a.MigrateProblem(context.TODO(), pr, p, mu)
}

// MigrateProblem implements ProblemMigrator: the placer and the frontier
// sweep both read pr's cache. The sweep is h_max points long and does
// not poll ctx; the placer gets it.
func (a MPareto) MigrateProblem(ctx context.Context, pr model.Problem, p model.Placement, mu float64) (model.Placement, float64, error) {
	if err := checkInputs(pr.PPDC, pr.Workload, pr.SFC, p, mu); err != nil {
		return nil, 0, err
	}
	placer := a.Placer
	if placer == nil {
		placer = placement.DP{}
	}
	pNew, _, err := placement.Solve(ctx, placer, pr)
	if err != nil {
		return nil, 0, err
	}
	points := parallelFrontiers(pr, p, pNew, mu)
	best := math.Inf(1)
	var m model.Placement
	for _, fp := range points {
		if !fp.Valid {
			continue
		}
		if ct := fp.Cb + fp.Ca; ct < best {
			best = ct
			m = fp.Frontier
		}
	}
	if m == nil {
		// Unreachable: frontier 1 (p itself) is always valid.
		return nil, 0, errNoFrontier()
	}
	return m.Clone(), best, nil
}

// FrontierPoint is one parallel migration frontier with its two cost
// coordinates — the axes of Fig. 6(b).
type FrontierPoint struct {
	// Frontier is the VNF position vector at this frontier.
	Frontier model.Placement
	// Cb is the migration cost C_b(p, Frontier).
	Cb float64
	// Ca is the communication cost C_a(Frontier) under the new rates.
	Ca float64
	// Valid reports whether the frontier respects the distinct-switch
	// constraint (or colocation is allowed).
	Valid bool
}

// ParallelFrontiers enumerates the h_max parallel migration frontiers of
// Definition 2 between placements p and pNew, with their cost coordinates.
// The first point is always p (C_b = 0) and the last is pNew.
func ParallelFrontiers(d *model.PPDC, w model.Workload, sfc model.SFC, p, pNew model.Placement, mu float64) []FrontierPoint {
	return parallelFrontiers(d.NewWorkloadCache(w).Problem(sfc), p, pNew, mu)
}

// parallelFrontiers is ParallelFrontiers on a prepared Problem.
func parallelFrontiers(pr model.Problem, p, pNew model.Placement, mu float64) []FrontierPoint {
	d, w, sfc := pr.PPDC, pr.Workload, pr.SFC
	n := sfc.Len()
	paths := make([][]int, n)
	hmax := 1
	for j := 0; j < n; j++ {
		paths[j] = d.APSP.Path(p[j], pNew[j])
		if paths[j] == nil {
			// Disconnected pair: stay put for this VNF.
			paths[j] = []int{p[j]}
		}
		if len(paths[j]) > hmax {
			hmax = len(paths[j])
		}
	}
	in, eg := pr.Cache.EndpointCosts()
	lambda := w.TotalRate()

	points := make([]FrontierPoint, 0, hmax)
	for i := 0; i < hmax; i++ {
		fr := make(model.Placement, n)
		for j := 0; j < n; j++ {
			k := i
			if k >= len(paths[j]) {
				k = len(paths[j]) - 1
			}
			fr[j] = paths[j][k]
		}
		cb := d.MigrationCost(p, fr, mu)
		ca := lambda*d.ChainCost(fr) + in[fr[0]] + eg[fr[n-1]]
		points = append(points, FrontierPoint{
			Frontier: fr,
			Cb:       cb,
			Ca:       ca,
			Valid:    fr.Validate(d, sfc) == nil,
		})
	}
	return points
}

func errNoFrontier() error {
	return fmt.Errorf("migration: no valid migration frontier")
}
