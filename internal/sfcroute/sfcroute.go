// Package sfcroute is the capacity-aware routing subsystem: it makes
// link capacity a first-class routing constraint for service function
// chains, after Sallam et al. ("Shortest Path and Maximum Flow Problems
// Under Service Function Chaining Constraints"). Its Router owns the
// fabric's links: one load per link, in link order, which prices the
// next epoch, gates admission, and feeds the reports, the engine's saved
// state and the max-flow bound.
//
// The engine routes through a placement, which puts each of the chain's
// n VNFs on one switch p_1..p_n. A flow from src to dst then costs
// c(src, p_1) + Σ c(p_ℓ, p_{ℓ+1}) + c(p_n, dst), the paper's Eq. 1, so
// its shortest chain route is a concatenation of per-stage shortest
// paths — its stage route:
//
//   - SFC-constrained shortest path: per epoch, one search on the priced
//     fabric from each stage site p_ℓ, stopped as p_{ℓ+1} settles, and
//     the full tree from p_n; per source, one search stopped as p_1
//     settles. A flow's walk is its source's path to p_1, the shared
//     stage paths, then p_n's tree path to dst, and its cost is the left
//     fold of the arc weights along that walk. A pruned or rerouted
//     attempt runs the same n+1 searches on its own pruned weights.
//
//   - SFC-constrained max flow: Sallam et al.'s layered expansion — n+1
//     copies of the fabric, a crossing from layer ℓ to ℓ+1 at p_{ℓ+1} —
//     with capacities per layer copy, a relaxation of the true
//     shared-capacity constraint (the exact problem is NP-hard). With one
//     site per stage that network is a series of its n+1 legs, so its
//     max flow is the least of the legs' max flows on the fabric, each
//     solved by internal/mcf (maxFlow). The relaxed optimum is an *upper
//     bound* on the routable volume, so a demand exceeding it is
//     provably unroutable — the soundness direction admission control
//     needs.
//
// The stage route is the layered shortest path written out per stage.
// With one site per stage, layer ℓ ≥ 1 of the expansion is entered only
// at (ℓ, p_ℓ), after layer ℓ−1 is done with, so a layered search runs
// there as a Dijkstra from p_ℓ started at D = dist(ℓ−1, p_ℓ): it pops
// in (D + a, id) order. Where the weights sum exactly — integer, dyadic
// and zero weights, every unpriced fabric — that is the run a search
// from p_ℓ started at 0 makes, so walk and cost bits are the layered
// search's. Where sums round, D's rounding can merge or split a near
// tie, and a stage route may take another path of equal cost up to
// rounding. Each stage path is then canonical whatever the flow came
// from, which is the spec this package keeps.
//
// Router combines both: congestion-aware link pricing (weights grow
// with utilization), residual-capacity tracking, unsplittable-path
// admission with bounded rerouting, and max-flow-backed rejection
// classification. The online engine re-prices and re-routes every epoch
// in its drift loop, handing the epoch's flows to Router.AdmitAll in one
// batch. Prices are frozen per epoch and the searches are deterministic,
// so every unpruned attempt of the epoch shares the stage paths and its
// source's path to p_1 — Admit and AdmitAll alike.
package sfcroute

import (
	"errors"
	"fmt"
	"slices"

	"vnfopt/internal/graph"
	"vnfopt/internal/model"
)

// ErrNoSite marks a chain stage with no feasible site: the chain would
// have a stage no route can cross.
var ErrNoSite = errors.New("sfcroute: chain stage has no feasible site")

// PlacementSites converts a committed placement into per-stage site
// sets: one singleton set per VNF.
func PlacementSites(p model.Placement) [][]int {
	sites := make([][]int, len(p))
	for j, s := range p {
		sites[j] = []int{s}
	}
	return sites
}

// stageSites validates per-stage site sets for a stage route, which
// crosses each stage at its one site: every stage is non-empty and
// within [0, n), repeated entries of a site collapse, and a stage with
// two different sites is refused.
func stageSites(sites [][]int, n int) error {
	for l, stage := range sites {
		if len(stage) == 0 {
			return fmt.Errorf("%w: stage %d of %d", ErrNoSite, l+1, len(sites))
		}
		for _, v := range stage {
			switch {
			case v < 0 || v >= n:
				return fmt.Errorf("sfcroute: stage %d site %d out of range [0,%d)", l+1, v, n)
			case v != stage[0]:
				return fmt.Errorf("sfcroute: stage %d has sites %d and %d; a stage route crosses one site per stage", l+1, stage[0], v)
			}
		}
	}
	return nil
}

// route assembles the stage route src → p_1 → … → p_n → dst into r.walk
// and returns its cost, the left fold of the weights along the walk;
// ok is false when some leg is unreachable. On the epoch's own prices
// (pruned false) the stage paths and p_n's tree are searched once per
// epoch and src's leg once per source; a pruned attempt searches all
// n+1 legs on r.pruneWt. With no stage, the source's search is the
// route.
func (r *Router) route(src, dst int, pruned bool) (cost float64, ok bool) {
	w, wt := r.priced, r.pricedWt
	if pruned {
		w, wt = r.pruned, r.pruneWt
	}
	r.walk = r.walk[:0]
	switch {
	case pruned || len(r.sites) == 0:
		at := src
		for _, p := range r.sites {
			if r.walk, ok = r.segment(r.walk, w, at, p); !ok {
				return 0, false
			}
			at = p
		}
		if r.walk, ok = r.segment(r.walk, w, at, dst); !ok {
			return 0, false
		}
	case !r.shareStages() || !r.sourceLeg(src) || r.tailDist[dst] == graph.Inf:
		return 0, false
	default:
		r.walk = append(r.walk, r.hops...)
		at := len(r.walk)
		for v := dst; r.tailArc[v] >= 0; v = int(r.tailPrev[v]) {
			r.walk = append(r.walk, r.tailArc[v])
		}
		slices.Reverse(r.walk[at:])
	}
	for _, slot := range r.walk {
		cost += wt[slot]
	}
	return cost, true
}

// shareStages builds the epoch's shared stage routes on the priced
// weights once: each hop p_ℓ → p_{ℓ+1}, searched until p_{ℓ+1} settles,
// and p_n's full tree with the arc into each vertex. It reports whether
// every stage reaches the next.
func (r *Router) shareStages() bool {
	if r.shared {
		return r.hopsOK
	}
	r.shared, r.hops, r.hopsOK = true, r.hops[:0], true
	for l := 1; l < len(r.sites) && r.hopsOK; l++ {
		r.hops, r.hopsOK = r.segment(r.hops, r.priced, r.sites[l-1], r.sites[l])
	}
	if r.hopsOK {
		r.searches++
		visit := r.sssp.Visit
		r.sssp.Visit = nil
		r.priced.DijkstraInto(r.sites[len(r.sites)-1], r.tailDist, r.tailPrev, &r.sssp)
		r.sssp.Visit = visit
		for v, u := range r.tailPrev {
			r.tailArc[v] = -1
			if u >= 0 {
				r.tailArc[v] = int32(r.priced.Arc(int(u), v))
			}
		}
	}
	return r.hopsOK
}

// sourceLeg appends src's path to p_1 on the priced weights to r.walk,
// searching it on the epoch's first call for src, and reports whether
// p_1 is reachable.
func (r *Router) sourceLeg(src int) bool {
	if r.srcEpoch[src] != r.epoch {
		at := len(r.srcArcs)
		var ok bool
		r.srcArcs, ok = r.segment(r.srcArcs, r.priced, src, r.sites[0])
		r.srcEpoch[src], r.srcAt[src], r.srcLen[src] = r.epoch, int32(at), int32(len(r.srcArcs)-at)
		if !ok {
			r.srcLen[src] = -1
		}
	}
	if r.srcLen[src] < 0 {
		return false
	}
	r.walk = append(r.walk, r.srcArcs[r.srcAt[src]:][:r.srcLen[src]]...)
	return true
}

// segment appends to buf the arc slots of the shortest a → b path on w,
// searched from a until b's cell is final; ok is false when b is
// unreachable.
func (r *Router) segment(buf []int32, w *graph.CSR, a, b int) ([]int32, bool) {
	r.searches++
	r.stopAt = b
	w.DijkstraInto(a, r.dist, r.prev, &r.sssp)
	return appendPath(buf, w, r.dist, r.prev, b)
}

// stop is the bounded searches' Visit hook. The stop ends the search
// unrelaxed: a popped one at once, a dead end once its neighbour's
// remaining arcs are relaxed, the entries they queue popped unrelaxed.
func (r *Router) stop(v int) bool {
	switch {
	case r.stopAt < 0:
		return false
	case v != r.stopAt:
		return true
	}
	r.stopAt = -1
	r.sssp.Discard(0, len(r.dist))
	return false
}

// appendPath appends to buf the arc slots of the tree path to b that
// dist/prev hold on w, in walk order; ok is false when b is unreachable.
// Each step takes w.Arc's least-weight arc, so the path's left fold is
// b's cell.
func appendPath(buf []int32, w *graph.CSR, dist []float64, prev []int32, b int) ([]int32, bool) {
	if dist[b] == graph.Inf {
		return buf, false
	}
	at := len(buf)
	for v := b; prev[v] >= 0; v = int(prev[v]) {
		buf = append(buf, int32(w.Arc(int(prev[v]), v)))
	}
	slices.Reverse(buf[at:])
	return buf, true
}
