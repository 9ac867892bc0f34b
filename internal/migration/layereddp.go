package migration

import (
	"context"
	"math"

	"vnfopt/internal/bnb"
	"vnfopt/internal/model"
)

// LayeredDP solves a relaxation of TOM exactly: distinct switches are
// relaxed to "no switch hosts two consecutive VNFs" under SwitchCap() == 1,
// and the capacity is dropped otherwise. It is tomSpec's relaxation in
// the branch-and-bound kernel (bnb.Relaxed), a min-plus program over the
// SFC layers where g_j(v) prices the chain after f_{j+1} on switch v:
//
//	g_{n-1}(v) = egress(v)
//	g_j(v)     = min_u [ Λ·c(v, u) + μ·c(p(j+2), u) + g_{j+1}(u) ]   (u ≠ v when SwitchCap() == 1)
//	bound      = min_v [ ingress(v) + μ·c(p(1), v) + g_0(v) ]
//
// in O(n·|V_s|²), with the target read forward by argmin. The bound is a
// true lower bound on the TOM optimum; when the traced target puts two
// VNFs on one switch further apart, a local repair pass moves later
// duplicates to their best free switch, so the cost is an upper bound.
// It stays as the migrator a scenario can select where Exhaustive's
// search has no time bound, and its bound feeds the differential checks.
type LayeredDP struct{}

// Name implements Migrator.
func (LayeredDP) Name() string { return "LayeredDP" }

// Migrate implements Migrator.
func (a LayeredDP) Migrate(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, error) {
	pr, err := d.NewProblem(w, sfc)
	if err != nil {
		return nil, 0, err
	}
	return a.MigrateProblem(context.TODO(), pr, p, mu)
}

// MigrateProblem implements ProblemMigrator. When the duplicate-repair
// pass degrades the traced solution past the cost of not migrating at
// all, staying put wins (m = p is always feasible with C_t = C_a(p)).
// The program is O(n·|V_s|²) and does not poll the context.
func (a LayeredDP) MigrateProblem(_ context.Context, pr model.Problem, p model.Placement, mu float64) (model.Placement, float64, error) {
	m, _, err := a.migrateBound(pr, p, mu)
	if err != nil {
		return nil, 0, err
	}
	d, w := pr.PPDC, pr.Workload
	ct := d.TotalCost(w, p, m, mu)
	if stay := d.CommCost(w, p); stay <= ct {
		return p.Clone(), stay, nil
	}
	return m, ct, nil
}

// MigrateBound returns the (possibly repaired) migration target together
// with the relaxation's value, which lower-bounds the true TOM optimum.
func (a LayeredDP) MigrateBound(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, error) {
	pr, err := d.NewProblem(w, sfc)
	if err != nil {
		return nil, 0, err
	}
	return a.migrateBound(pr, p, mu)
}

// migrateBound is MigrateBound on a prepared Problem.
func (LayeredDP) migrateBound(pr model.Problem, p model.Placement, mu float64) (model.Placement, float64, error) {
	d := pr.PPDC
	if err := checkInputs(d, pr.Workload, pr.SFC, p, mu); err != nil {
		return nil, 0, err
	}
	bound, path := bnb.Relaxed(tomSpec(pr, p, mu))
	if path == nil { // every target costs +Inf: staying put is as good
		return p.Clone(), bound, nil
	}
	m := onSwitches(d, path)
	if d.SwitchCap() > 0 {
		repairOverflows(d, pr.Cache, p, m, mu)
	}
	return m, bound, nil
}

// repairOverflows resolves per-switch capacity violations in m in place:
// for each VNF that overflows its switch, pick the switch with remaining
// capacity minimizing the local change in C_t (migration term plus the
// two adjacent chain edges and any endpoint term). It reuses the caller's
// workload cache rather than re-deriving the endpoint vectors.
func repairOverflows(d *model.PPDC, cache *model.WorkloadCache, p, m model.Placement, mu float64) {
	in, eg := cache.EndpointCosts()
	lambda := cache.TotalRate()
	used := make(map[int]int, len(m))
	for j := range m {
		if d.CapFits(used, m[j]) {
			used[m[j]]++
			continue
		}
		best := math.Inf(1)
		bestV := -1
		for _, v := range d.Topo.Switches {
			if !d.CapFits(used, v) {
				continue
			}
			if c := localCost(d, in, eg, lambda, mu, p, m, j, v); c < best {
				best = c
				bestV = v
			}
		}
		if bestV >= 0 {
			m[j] = bestV
		}
		used[m[j]]++
	}
}

// localCost is the share of C_t(p, m) carried by hosting f_{j+1} on v
// with the rest of m fixed: μ·c(p(j+1), v), plus the ingress or
// Λ·c(m(j), v), plus the egress or Λ·c(v, m(j+2)).
func localCost(d *model.PPDC, in, eg []float64, lambda, mu float64, p, m model.Placement, j, v int) float64 {
	c := mu * d.APSP.Cost(p[j], v)
	if j == 0 {
		c += in[v]
	} else {
		c += lambda * d.APSP.Cost(m[j-1], v)
	}
	if j == len(m)-1 {
		c += eg[v]
	} else {
		c += lambda * d.APSP.Cost(v, m[j+1])
	}
	return c
}
