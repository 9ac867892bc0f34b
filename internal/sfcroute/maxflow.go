package sfcroute

import (
	"math"

	"vnfopt/internal/mcf"
)

// The flow side of Sallam et al.'s layered transformation. True
// SFC-constrained max flow with link capacities *shared across layers*
// is NP-hard; the relaxation here applies each link's capacity per
// (layer, direction) copy, so its optimum can only exceed the true
// value. That direction is exactly what admission control needs: if even
// the relaxation cannot ship a demand, the demand is provably unroutable
// and must be rejected. Conversely a path found by the Router is a
// feasibility certificate, so the two bounds bracket the NP-hard
// quantity from both sides.
//
// With one site per stage the layered network is a series of its legs:
// layer ℓ is entered only through the crossing at p_ℓ and left only
// through the crossing at p_{ℓ+1}, and each layer has capacities of its
// own, so every unit of flow crosses every leg and the relaxation's max
// flow is the least of the legs' max flows on the fabric alone.

// maxFlow is the Router's residual-capacity bound: the least max flow of
// the legs src → p_1, p_ℓ → p_{ℓ+1} and p_n → dst, each on the fabric
// with every arc's capacity its link's headroom (capacity ×
// MaxUtilization − load) and its cost the link's weight. A leg whose ends
// are one vertex is unbounded, so with no other leg the bound is +Inf. A
// leg stops augmenting at the least flow of the legs before it, which
// cannot lower the least. Admit consults it to prove rejections.
func (r *Router) maxFlow(src, dst int) (float64, error) {
	if !r.ready {
		return 0, errNoEpoch
	}
	bound, at := math.Inf(1), src
	for l := 0; l <= len(r.sites) && bound > 0; l++ {
		next := dst
		if l < len(r.sites) {
			next = r.sites[l]
		}
		if at != next {
			flow, err := r.legFlow(at, next, bound)
			if err != nil {
				return 0, err
			}
			bound = min(bound, flow)
		}
		at = next
	}
	return bound, nil
}

// legFlow is the max flow from a to b ≠ a on the fabric, up to limit:
// one mcf arc per slot, with its link's headroom as capacity. A down
// link's arcs cost +Inf, and no augmenting path takes an arc of infinite
// cost, so they carry nothing.
func (r *Router) legFlow(a, b int, limit float64) (float64, error) {
	nw := mcf.NewNetwork(r.priced.Order())
	r.priced.ForEachSlot(func(slot, u, v int, _ float64) {
		nw.AddArc(u, v, r.headroom(int(r.slotLink[slot])), r.baseWt[slot])
	})
	res, err := nw.MinCostFlow(a, b, limit)
	return res.Flow, err
}
