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
//   - SFC-constrained shortest path: per epoch, a full tree on the
//     priced fabric from each chain end, p_1 and p_n, and a search from
//     each later site p_ℓ, ℓ ≥ 2, stopped as p_{ℓ+1} settles. A flow's
//     walk is src's path in p_1's tree read towards p_1, the stage
//     paths, then p_n's tree path to dst; its cost is the left fold of
//     the arc weights along that walk. A pruned or rerouted attempt runs
//     n+1 searches, src's among them, on its own pruned weights.
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
// A source leg is canonical the other way round: src's path in p_1's
// tree, read towards p_1. Where shortest src → p_1 paths tie, it may
// take another of them than a search from src would — the layered
// search's layer 0, or a pruned attempt's first leg.
//
// Router combines both: congestion-aware link pricing (weights grow
// with utilization), residual-capacity tracking, unsplittable-path
// admission with bounded rerouting, and max-flow-backed rejection
// classification. The online engine re-prices and re-routes every epoch
// in its drift loop, handing the epoch's flows to Router.AdmitAll in one
// batch. Prices are frozen per epoch and the searches are deterministic,
// so every unpruned attempt of the epoch reads its whole route from the
// epoch's two trees and stage paths — Admit and AdmitAll alike.
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
// ok is false when some leg is unreachable. Unpruned, it reads the
// epoch's shared stage routes; a pruned attempt searches all n+1 legs
// on r.pruneWt. With no stage, the source's search is the route.
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
	case !r.shareStages() || r.trees[0].dist[src] == graph.Inf || r.tail.dist[dst] == graph.Inf:
		return 0, false
	default:
		r.walk = r.trees[0].appendTo(r.walk, src)
		r.walk = r.tail.appendFrom(append(r.walk, r.hops...), dst)
	}
	for _, slot := range r.walk {
		cost += wt[slot]
	}
	return cost, true
}

// shareStages builds the epoch's shared stage routes once: p_1's full
// tree, holding the hop p_1 → p_2; a bounded search per later hop; and
// p_n's full tree. It reports whether every stage reaches the next.
func (r *Router) shareStages() bool {
	if r.shared {
		return r.hopsOK
	}
	r.shared = true
	head, last := &r.trees[0], len(r.sites)-1
	r.grow(head, r.sites[0])
	p2 := r.sites[min(1, last)]
	r.hops, r.hopsOK = head.appendFrom(r.hops[:0], p2), head.dist[p2] != graph.Inf
	for l := 2; l <= last && r.hopsOK; l++ {
		r.hops, r.hopsOK = r.segment(r.hops, r.priced, r.sites[l-1], r.sites[l])
	}
	r.tail = head
	if r.hopsOK && r.sites[last] != r.sites[0] {
		r.tail = &r.trees[1]
		r.grow(r.tail, r.sites[last])
	}
	return r.hopsOK
}

// siteTree is a full shortest-path tree on the priced weights, rooted at
// a chain end: dist/prev, and each vertex's tree arc slot both ways,
// from[v] = Arc(prev[v], v) and to[v] = Arc(v, prev[v]); −1 where prev[v] is.
type siteTree struct {
	dist           []float64
	prev, from, to []int32
}

// grow fills t with the full tree of root on the priced weights.
func (r *Router) grow(t *siteTree, root int) {
	r.searches++
	visit := r.sssp.Visit
	r.sssp.Visit = nil
	r.priced.DijkstraInto(root, t.dist, t.prev, &r.sssp)
	r.sssp.Visit = visit
	for v, u := range t.prev {
		t.from[v], t.to[v] = -1, -1
		if u >= 0 {
			t.from[v], t.to[v] = int32(r.priced.Arc(int(u), v)), int32(r.priced.Arc(v, int(u)))
		}
	}
}

// appendFrom appends to buf the arc slots of the tree path root → v, a
// vertex on the tree, in walk order.
func (t *siteTree) appendFrom(buf []int32, v int) []int32 {
	at := len(buf)
	for ; t.from[v] >= 0; v = int(t.prev[v]) {
		buf = append(buf, t.from[v])
	}
	slices.Reverse(buf[at:])
	return buf
}

// appendTo appends to buf the arc slots of the tree path v → root, for v
// on the tree: a shortest path, as a link is priced the same both ways.
func (t *siteTree) appendTo(buf []int32, v int) []int32 {
	for ; t.to[v] >= 0; v = int(t.prev[v]) {
		buf = append(buf, t.to[v])
	}
	return buf
}

// segment appends to buf the arc slots of the shortest a → b path on w,
// searched from a until b's cell is final; ok is false when b is
// unreachable. Each step takes w.Arc's least-weight arc, so the path's
// left fold is b's cell.
func (r *Router) segment(buf []int32, w *graph.CSR, a, b int) ([]int32, bool) {
	r.searches++
	r.stopAt = b
	w.DijkstraInto(a, r.dist, r.prev, &r.sssp)
	if r.dist[b] == graph.Inf {
		return buf, false
	}
	at := len(buf)
	for v := b; r.prev[v] >= 0; v = int(r.prev[v]) {
		buf = append(buf, int32(w.Arc(int(r.prev[v]), v)))
	}
	slices.Reverse(buf[at:])
	return buf, true
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
