package sfcroute

import (
	"fmt"
	"math"

	"vnfopt/internal/graph"
	"vnfopt/internal/mcf"
	"vnfopt/internal/routing"
)

// The flow-network side of the layered transformation. True
// SFC-constrained max flow with link capacities *shared across layers*
// is NP-hard, so the network built here applies each link's capacity
// per (layer, direction) copy — a polynomial relaxation whose optimum
// can only exceed the true value. That direction is exactly what
// admission control needs: if even the relaxation cannot ship a demand,
// the demand is provably unroutable and must be rejected. Conversely a
// path found by the Router is a feasibility certificate, so the two
// bounds bracket the NP-hard quantity from both sides.

// maxFlow computes the chain-constrained max-flow relaxation bound from
// src to dst: the most traffic any routing (splittable, multi-path)
// could push through the chain if every link offered its full capacity
// in every layer. A demand above the returned Flow is provably
// unroutable. The mcf network is the layered expansion: per layer, two
// arcs per undirected link (capacity capOf, cost = link weight); per
// stage, one uncapacitated zero-cost crossing arc at every site.
func maxFlow(g *graph.Graph, sites [][]int, src, dst int, capOf func(routing.Link) float64) (mcf.Result, error) {
	V := g.Order()
	if err := validateSites(sites, V); err != nil {
		return mcf.Result{}, err
	}
	layers := len(sites) + 1
	nw := mcf.NewNetwork(layers * V)
	edges := g.Edges()
	for l := 0; l < layers; l++ {
		off := l * V
		for _, rec := range edges {
			c := capOf(routing.Link{U: rec.U, V: rec.V})
			if c < 0 || math.IsNaN(c) {
				return mcf.Result{}, fmt.Errorf("sfcroute: link (%d,%d) has invalid capacity %v", rec.U, rec.V, c)
			}
			nw.AddArc(off+rec.U, off+rec.V, c, rec.Weight)
			nw.AddArc(off+rec.V, off+rec.U, c, rec.Weight)
		}
	}
	for l, stage := range sites {
		off := l * V
		for _, s := range stage {
			nw.AddArc(off+s, off+V+s, math.Inf(1), 0)
		}
	}
	s, t := src, len(sites)*V+dst
	if s == t {
		// n=0 with identical endpoints: nothing constrains the flow.
		return mcf.Result{Flow: math.Inf(1)}, nil
	}
	return nw.MinCostFlow(s, t, math.Inf(1))
}

// maxFlow is the Router's residual-capacity bound: the relaxation
// computed against current headroom (capacity × MaxUtilization − load).
// Admit consults it to prove rejections.
func (r *Router) maxFlow(src, dst int) (mcf.Result, error) {
	if !r.ready {
		return mcf.Result{}, errNoEpoch
	}
	return maxFlow(r.d.Topo.Graph, PlacementSites(r.sites), src, dst, func(l routing.Link) float64 {
		return r.headroom(r.lidx[l])
	})
}
