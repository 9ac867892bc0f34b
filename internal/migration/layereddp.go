package migration

import (
	"context"
	"math"

	"vnfopt/internal/model"
)

// LayeredDP solves TOM exactly *modulo the distinct-switch constraint*: a
// Viterbi-style dynamic program over the SFC layers where layer j's state
// is the switch hosting f_{j+1}:
//
//	cost_0(v)   = ingress(v) + μ·c(p(1), v)
//	cost_j(v)   = min_u [ cost_{j-1}(u) + Λ·c(u, v) ] + μ·c(p(j+1), v)
//	C_t         = min_v [ cost_{n-1}(v) + egress(v) ]
//
// in O(n·|V_s|²). Its unconstrained value is a true lower bound on the TOM
// optimum; when the traced solution happens to place two VNFs on one
// switch, a local repair pass moves later duplicates to their best free
// switch. This is the paper-scale "Optimal" surrogate at k=16, where
// Algorithm 6's O(|V_s|^n) enumeration is infeasible (documented
// substitution; on every small instance where Algorithm 6 runs, LayeredDP
// matches it — see tests).
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
// The DP is O(n·|V_s|²) and does not poll the context.
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
// with the unconstrained DP value, which lower-bounds the true TOM
// optimum.
func (a LayeredDP) MigrateBound(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, error) {
	pr, err := d.NewProblem(w, sfc)
	if err != nil {
		return nil, 0, err
	}
	return a.migrateBound(pr, p, mu)
}

// migrateBound is MigrateBound on a prepared Problem.
func (LayeredDP) migrateBound(pr model.Problem, p model.Placement, mu float64) (model.Placement, float64, error) {
	d, sfc, cache := pr.PPDC, pr.SFC, pr.Cache
	if err := checkInputs(d, pr.Workload, sfc, p, mu); err != nil {
		return nil, 0, err
	}
	n := sfc.Len()
	sw := d.Topo.Switches
	in, eg := cache.EndpointCosts()
	lambda := cache.TotalRate()

	// cost[j][i]: best cost of layers 0..j with f_{j+1} on switch sw[i].
	cost := make([][]float64, n)
	from := make([][]int32, n)
	for j := range cost {
		cost[j] = make([]float64, len(sw))
		from[j] = make([]int32, len(sw))
	}
	for i, v := range sw {
		cost[0][i] = in[v] + mu*d.APSP.Cost(p[0], v)
		from[0][i] = -1
	}
	for j := 1; j < n; j++ {
		for i, v := range sw {
			best := math.Inf(1)
			bestU := int32(-1)
			for u, uv := range sw {
				if c := cost[j-1][u] + lambda*d.APSP.Cost(uv, v); c < best {
					best = c
					bestU = int32(u)
				}
			}
			cost[j][i] = best + mu*d.APSP.Cost(p[j], v)
			from[j][i] = bestU
		}
	}
	best := math.Inf(1)
	bestI := -1
	for i, v := range sw {
		if c := cost[n-1][i] + eg[v]; c < best {
			best = c
			bestI = i
		}
	}
	// Trace back.
	m := make(model.Placement, n)
	for j, i := n-1, int32(bestI); j >= 0; j-- {
		m[j] = sw[i]
		i = from[j][i]
	}
	bound := best

	if d.SwitchCap() > 0 {
		repairOverflows(d, cache, p, m, mu)
	}
	return m, bound, nil
}

// repairOverflows resolves per-switch capacity violations in m in place:
// for each VNF that overflows its switch, pick the switch with remaining
// capacity minimizing the local change in C_t (migration term plus the
// two adjacent chain edges and any endpoint term). It reuses the caller's
// workload cache rather than re-deriving the endpoint vectors.
func repairOverflows(d *model.PPDC, cache *model.WorkloadCache, p, m model.Placement, mu float64) {
	n := len(m)
	in, eg := cache.EndpointCosts()
	lambda := cache.TotalRate()
	used := make(map[int]int, n)
	for j := 0; j < n; j++ {
		if d.CapFits(used, m[j]) {
			used[m[j]]++
			continue
		}
		// Local cost of hosting f_{j+1} at v given fixed neighbours.
		local := func(v int) float64 {
			c := mu * d.APSP.Cost(p[j], v)
			if j == 0 {
				c += in[v]
			} else {
				c += lambda * d.APSP.Cost(m[j-1], v)
			}
			if j == n-1 {
				c += eg[v]
			} else {
				c += lambda * d.APSP.Cost(v, m[j+1])
			}
			return c
		}
		best := math.Inf(1)
		bestV := -1
		for _, v := range d.Topo.Switches {
			if !d.CapFits(used, v) {
				continue
			}
			if c := local(v); c < best {
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
