package model

// This file implements the paper's cost functions.
//
// Eq. 1:  C_a(p) = Σ_i λ_i Σ_{j<n} c(p(j), p(j+1))
//                + Σ_i λ_i ( c(s(v_i), p(1)) + c(p(n), s(v'_i)) )
//
// C_b(p,m) = μ Σ_j c(p(j), m(j))                       (migration traffic)
// Eq. 8:  C_t(p,m) = C_b(p,m) + C_a(m)                 (TOM objective)
//
// A useful decomposition the solvers exploit: the chain portion of C_a is
// paid once per unit of rate by *every* flow, so
//
//   C_a(p) = Λ · chain(p) + Σ_i λ_i ( c(s_i, p(1)) + c(p(n), t_i) )
//
// with Λ = Σλ_i. EndpointCosts precomputes the two per-switch endpoint sums.

// ChainCost returns Σ_{j<n} c(p(j), p(j+1)) — the length of the SFC path.
func (d *PPDC) ChainCost(p Placement) float64 {
	sum := 0.0
	for j := 0; j+1 < len(p); j++ {
		sum += d.APSP.Row(p[j]).Cost(p[j+1])
	}
	return sum
}

// CommCost returns C_a(p) for the workload under placement p (Eq. 1).
// An empty placement means flows communicate directly (no SFC), costing
// Σ λ_i c(s_i, t_i). It reads the egress switch's row once per call.
func (d *PPDC) CommCost(w Workload, p Placement) float64 {
	if len(p) == 0 {
		sum := 0.0
		for _, f := range w {
			sum += f.Rate * d.APSP.Row(f.Src).Cost(f.Dst)
		}
		return sum
	}
	chain := d.ChainCost(p)
	total := w.TotalRate() * chain
	in, out := p[0], d.APSP.Row(p[len(p)-1])
	for _, f := range w {
		total += f.Rate * (d.APSP.Row(f.Src).Cost(in) + out.Cost(f.Dst))
	}
	return total
}

// MigrationCost returns C_b(p, m) = μ Σ_j c(p(j), m(j)). It panics when the
// placements have different lengths, which indicates a solver bug.
func (d *PPDC) MigrationCost(p, m Placement, mu float64) float64 {
	if len(p) != len(m) {
		panic("model: migration between placements of different SFC lengths")
	}
	sum := 0.0
	for j := range p {
		sum += d.APSP.Row(p[j]).Cost(m[j])
	}
	return mu * sum
}

// TotalCost returns C_t(p, m) = C_b(p, m) + C_a(m) (Eq. 8): the TOM
// objective of migrating from p to m and then serving workload w.
func (d *PPDC) TotalCost(w Workload, p, m Placement, mu float64) float64 {
	return d.MigrationCost(p, m, mu) + d.CommCost(w, m)
}

// EndpointCosts precomputes, for every vertex s of the PPDC,
//
//	ingress[s] = Σ_i λ_i c(s(v_i), s)   (cost of using s as ingress switch)
//	egress[s]  = Σ_i λ_i c(s, s(v'_i))  (cost of using s as egress switch)
//
// so that C_a(p) = Λ·chain(p) + ingress[p(1)] + egress[p(n)]. Placement
// solvers call this once per traffic vector instead of re-scanning flows
// for every candidate ingress/egress pair.
func (d *PPDC) EndpointCosts(w Workload) (ingress, egress []float64) {
	n := d.Topo.Graph.Order()
	ingress = make([]float64, n)
	egress = make([]float64, n)
	for _, f := range w {
		if f.Rate == 0 {
			continue
		}
		for v := 0; v < n; v++ {
			ingress[v] += f.Rate * d.APSP.Cost(f.Src, v)
			egress[v] += f.Rate * d.APSP.Cost(v, f.Dst)
		}
	}
	return ingress, egress
}
