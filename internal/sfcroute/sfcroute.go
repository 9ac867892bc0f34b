// Package sfcroute is the capacity-aware routing subsystem: it turns
// link capacity from an after-the-fact report (internal/routing) into a
// first-class routing constraint via the layered-graph transformation of
// Sallam et al. ("Shortest Path and Maximum Flow Problems Under Service
// Function Chaining Constraints").
//
// For a chain of n VNFs the transformation stacks n+1 copies of the
// fabric and adds one directed zero-weight edge per VNF site from its
// copy in layer ℓ to its copy in layer ℓ+1. A path from (0, src) to
// (n, dst) then crosses exactly one site of every stage in order, so the
// SFC constraint becomes plain graph structure and two classical
// problems become tractable on top of the existing kernels:
//
//   - SFC-constrained shortest path: one zero-alloc CSR Dijkstra on the
//     layered snapshot (Layered.shortestPathOn) that retires a layer once
//     the next stage's sites settle and stops at its destinations. With
//     singleton sites — one fixed switch per VNF, the placement case —
//     the route is exactly the metric-closure concatenation the
//     optimizers price, pinned bit-for-bit on unit-weight fabrics.
//
//   - SFC-constrained max flow: a directed flow network over the
//     layered expansion solved by internal/mcf (maxFlow). Capacities
//     apply per layer copy, which is a relaxation of the true
//     shared-capacity constraint (the exact problem is NP-hard); the
//     relaxed optimum is an *upper bound* on the routable volume, so a
//     demand exceeding it is provably unroutable — the soundness
//     direction admission control needs.
//
// Router combines both: congestion-aware link pricing (weights grow
// with utilization), residual-capacity tracking, unsplittable-path
// admission with bounded rerouting, and max-flow-backed rejection
// classification. The online engine re-prices and re-routes every epoch
// in its drift loop, handing the epoch's flows to Router.AdmitAll in one
// batch: prices are frozen per epoch and the search is deterministic, so
// every flow whose prune set is empty shares its source's one unpruned
// search, run until the last of their destinations settles — one search
// per distinct source, bit-identical to admitting flow by flow.
package sfcroute

import (
	"errors"
	"fmt"
	"slices"

	"vnfopt/internal/graph"
	"vnfopt/internal/model"
)

// ErrNoSite marks a chain stage with no feasible site: the layered
// graph would have an uncrossable layer boundary.
var ErrNoSite = errors.New("sfcroute: chain stage has no feasible site")

// ErrUnroutable marks a (src, dst) pair with no chain-constrained route
// under the current weights (disconnection or pruned-out capacity).
var ErrUnroutable = errors.New("sfcroute: no feasible route")

// PlacementSites converts a committed placement into the per-stage site
// sets of the layered transformation: one singleton set per VNF.
func PlacementSites(p model.Placement) [][]int {
	sites := make([][]int, len(p))
	for j, s := range p {
		sites[j] = []int{s}
	}
	return sites
}

// validateSites checks every stage is non-empty and within [0, n).
func validateSites(sites [][]int, n int) error {
	for l, stage := range sites {
		if len(stage) == 0 {
			return fmt.Errorf("%w: stage %d of %d", ErrNoSite, l+1, len(sites))
		}
		for _, v := range stage {
			if v < 0 || v >= n {
				return fmt.Errorf("sfcroute: stage %d site %d out of range [0,%d)", l+1, v, n)
			}
		}
	}
	return nil
}

// Layered is the layered expansion of one fabric snapshot for one chain
// spec: n+1 stacked copies with directed site crossings. It is immutable
// once built; routers swap weight arrays (pricing, pruning) with
// graph.CSR.WithWeights without rebuilding the structure.
type Layered struct {
	csr   *graph.CSR
	n     int     // base fabric order
	sites [][]int // owned copy; stage ℓ's sites are layer ℓ's exits
}

// buildLayered expands base for the given per-stage site sets. An empty
// sites slice (n=0 chain) degenerates to the plain fabric: shortest
// path on it is the ordinary point-to-point Dijkstra.
func buildLayered(base *graph.CSR, sites [][]int) (*Layered, error) {
	if err := validateSites(sites, base.Order()); err != nil {
		return nil, err
	}
	own := make([][]int, len(sites))
	for i, stage := range sites {
		own[i] = slices.Clone(stage)
	}
	return &Layered{csr: base.Layered(sites, 0), n: base.Order(), sites: own}, nil
}

// Order returns the layered vertex count, (stages+1) × the fabric's.
func (L *Layered) Order() int { return L.csr.Order() }

// PathResult is one chain-constrained route: its cost under the weights
// it was computed with, the projected fabric walk src..dst (layer
// crossings removed; a link traversed in two layers appears twice, as
// in the walks routing.LinkLoads charges), and the site chosen for each
// stage in order.
type PathResult struct {
	Cost     float64 `json:"cost"`
	Walk     []int   `json:"walk"`
	Gateways []int   `json:"gateways"`
}

// SearchScratch is the reusable state of the layered search: dist/prev
// rows, heap, and per layer the count of exits (last layer: targets)
// still unsettled. mark is generation-stamped, so a repeated site or
// target counts once and a search starts without clearing it.
type SearchScratch struct {
	dist []float64
	prev []int32
	sssp graph.SSSPScratch
	mark []uint64 // mark[x] == gen: x is an exit or target of this search
	gen  uint64   // never wraps
	left []int
	n    int
}

// search runs Dijkstra from (0, src) on w, a view of this expansion,
// until the targets (stages, dst) of dsts settle. A settled vertex's
// cells are final, and so are those of its tree path, which settled
// before it. A dead end — a host, in a layer no crossing enters —
// settles as its edge switch relaxes it. A path leaves layer ℓ only
// over an exit's crossing; once every exit has settled and been relaxed,
// what is left in layer ℓ can lower only unsettled layer-ℓ cells, which
// no route reads, so the layer retires: its queued entries are dropped
// and nothing more in it is relaxed. An exit is never a dead end: its
// crossing is beside its fabric arcs. After the search only the targets'
// routes in s are final — exactly DijkstraInto's.
func (L *Layered) search(w *graph.CSR, src int, s *SearchScratch, dsts ...int) {
	if nv := L.csr.Order(); len(s.dist) != nv {
		s.dist, s.prev, s.mark = make([]float64, nv), make([]int32, nv), make([]uint64, nv)
		s.sssp.Visit = s.settle
	}
	s.gen++
	s.n, s.left = L.n, append(s.left[:0], make([]int, len(L.sites)+1)...)
	for l := range s.left {
		exits := dsts
		if l < len(L.sites) {
			exits = L.sites[l]
		}
		for _, v := range exits {
			if x := l*L.n + v; s.mark[x] != s.gen {
				s.mark[x], s.left[l] = s.gen, s.left[l]+1
			}
		}
	}
	w.DijkstraInto(src, s.dist, s.prev, &s.sssp)
}

// settle is search's Visit hook. A layer's last exit retires the layer
// and is still relaxed; the last target ends the search. A host target
// settles while its edge switch relaxes its arcs, and what the ones
// after it queue is popped unrelaxed: the last layer has no target left.
func (s *SearchScratch) settle(x int) bool {
	l := x / s.n
	if s.left[l] == 0 {
		return false
	}
	if s.mark[x] == s.gen {
		if s.left[l]--; s.left[l] == 0 {
			if l == len(s.left)-1 {
				s.sssp.Discard(0, len(s.dist)) // the last target: stop
				return false
			}
			s.sssp.Discard(l*s.n, (l+1)*s.n) // the last exit: retire
		}
	}
	return true
}

// shortestPathOn computes the chain-constrained shortest path from src
// to dst on w — this expansion's CSR or a view sharing its structure,
// e.g. a pruned or re-priced WithWeights one — with reusable scratch s.
// Only the PathResult slices allocate. The search ends once dst's route
// is final; no other cell of s is.
func (L *Layered) shortestPathOn(w *graph.CSR, src, dst int, s *SearchScratch) (PathResult, error) {
	if w.Order() != L.csr.Order() {
		return PathResult{}, fmt.Errorf("sfcroute: weight view order %d does not match layered order %d", w.Order(), L.csr.Order())
	}
	if err := L.checkEndpoints(src, dst); err != nil {
		return PathResult{}, err
	}
	L.search(w, src, s, dst)
	return L.pathFrom(src, dst, s)
}

func (L *Layered) checkEndpoints(src, dst int) error {
	if src < 0 || src >= L.n || dst < 0 || dst >= L.n {
		return fmt.Errorf("sfcroute: endpoints (%d,%d) out of range [0,%d)", src, dst, L.n)
	}
	return nil
}

// pathFrom reads dst's route out of the tree the last search from
// (0, src) left in s. Only a target of that search reads a final route,
// but one search serves all of its targets: a caller routing several
// flows from one source on one weight view searches once for their
// destinations and calls this per flow.
func (L *Layered) pathFrom(src, dst int, s *SearchScratch) (PathResult, error) {
	stages := len(L.sites)
	target := stages*L.n + dst
	cost := s.dist[target]
	if cost == graph.Inf {
		return PathResult{}, fmt.Errorf("%w: %d → chain(%d stages) → %d", ErrUnroutable, src, stages, dst)
	}
	// Project the layered path from its end: a crossing keeps the same
	// base vertex across consecutive layered vertices (the fabric has no
	// self-loops, so equal consecutive base ids happen only at crossings)
	// and records the stage's chosen gateway. The path climbs one layer
	// per crossing, so it has exactly stages of them: count its vertices,
	// and both slices are allocated at their lengths.
	verts := 0
	for x := target; x != -1; x = int(s.prev[x]) {
		verts++
	}
	res := PathResult{Cost: cost, Walk: make([]int, verts-stages)}
	if stages > 0 {
		res.Gateways = make([]int, stages)
	}
	w, g := len(res.Walk), stages
	for x := target; x != -1; {
		p, v := int(s.prev[x]), x%L.n
		if p >= 0 && p%L.n == v {
			g--
			res.Gateways[g] = v
		} else {
			w--
			res.Walk[w] = v
		}
		x = p
	}
	return res, nil
}
