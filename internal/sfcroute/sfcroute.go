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
//     layered snapshot (Layered.ShortestPath). With singleton sites —
//     one fixed switch per VNF, the placement case — the result is
//     exactly the metric-closure concatenation the optimizers price, and
//     the differential tests pin the two bit-for-bit on unit-weight
//     fabrics.
//
//   - SFC-constrained max flow / min-cost routing: a directed flow
//     network over the layered expansion solved by internal/mcf
//     (MaxFlow, MinCostRoute). Capacities apply per layer copy, which is
//     a relaxation of the true shared-capacity constraint (the exact
//     problem is NP-hard); the relaxed optimum is an *upper bound* on
//     the routable volume, so a demand exceeding it is provably
//     unroutable — the soundness direction admission control needs.
//
// Router combines both: congestion-aware link pricing (weights grow
// with utilization), residual-capacity tracking, unsplittable-path
// admission with bounded rerouting, and max-flow-backed rejection
// classification. The online engine re-prices and re-routes every epoch
// in its drift loop, handing the epoch's flows to Router.AdmitAll in one
// batch: prices are frozen per epoch and the search is deterministic, so
// every flow whose prune set is empty shares its source's one unpruned
// shortest-path tree instead of re-deriving it — one search per distinct
// source, bit-identical to admitting flow by flow.
package sfcroute

import (
	"errors"
	"fmt"

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
	csr    *graph.CSR
	n      int // base fabric order
	stages int // chain length
}

// BuildLayered expands base for the given per-stage site sets. An empty
// sites slice (n=0 chain) degenerates to the plain fabric: shortest
// path on it is the ordinary point-to-point Dijkstra.
func BuildLayered(base *graph.CSR, sites [][]int) (*Layered, error) {
	if err := validateSites(sites, base.Order()); err != nil {
		return nil, err
	}
	return &Layered{csr: base.Layered(sites, 0), n: base.Order(), stages: len(sites)}, nil
}

// Order returns the layered vertex count, (stages+1) × BaseOrder().
func (L *Layered) Order() int { return L.csr.Order() }

// BaseOrder returns the fabric vertex count.
func (L *Layered) BaseOrder() int { return L.n }

// Stages returns the chain length n.
func (L *Layered) Stages() int { return L.stages }

// CSR exposes the layered snapshot (for weight-swapped routing runs).
func (L *Layered) CSR() *graph.CSR { return L.csr }

// PathResult is one chain-constrained route: its cost under the weights
// it was computed with, the projected fabric walk src..dst (layer
// crossings removed; a link traversed in two layers appears twice, as
// in routing.FlowRoute), and the site chosen for each stage in order.
type PathResult struct {
	Cost     float64 `json:"cost"`
	Walk     []int   `json:"walk"`
	Gateways []int   `json:"gateways"`
}

// ShortestPath computes the chain-constrained shortest path from src to
// dst on the layered snapshot's own weights, allocating its scratch.
func (L *Layered) ShortestPath(src, dst int) (PathResult, error) {
	dist := make([]float64, L.csr.Order())
	prev := make([]int32, L.csr.Order())
	var scratch graph.SSSPScratch
	return L.ShortestPathOn(L.csr, src, dst, dist, prev, &scratch)
}

// ShortestPathOn is the kernel form: it runs the zero-alloc CSR
// Dijkstra on w — a snapshot sharing this expansion's structure, e.g. a
// pruned or re-priced WithWeights view — with caller-owned dist/prev
// rows (length Order()) and scratch. Only the PathResult slices
// allocate.
func (L *Layered) ShortestPathOn(w *graph.CSR, src, dst int, dist []float64, prev []int32, s *graph.SSSPScratch) (PathResult, error) {
	if w.Order() != L.csr.Order() {
		return PathResult{}, fmt.Errorf("sfcroute: weight view order %d does not match layered order %d", w.Order(), L.csr.Order())
	}
	if err := L.checkEndpoints(src, dst); err != nil {
		return PathResult{}, err
	}
	w.DijkstraInto(src, dist, prev, s)
	return L.pathFrom(src, dst, dist, prev)
}

func (L *Layered) checkEndpoints(src, dst int) error {
	if src < 0 || src >= L.n || dst < 0 || dst >= L.n {
		return fmt.Errorf("sfcroute: endpoints (%d,%d) out of range [0,%d)", src, dst, L.n)
	}
	return nil
}

// pathFrom reads dst's route out of the shortest-path tree a
// DijkstraInto run from (0, src) left in dist/prev. One tree serves
// every destination, so a caller routing several flows from one source
// on one weight view searches once and calls this per flow.
func (L *Layered) pathFrom(src, dst int, dist []float64, prev []int32) (PathResult, error) {
	target := L.stages*L.n + dst
	cost := dist[target]
	if cost == graph.Inf {
		return PathResult{}, fmt.Errorf("%w: %d → chain(%d stages) → %d", ErrUnroutable, src, L.stages, dst)
	}
	// Reconstruct the layered path, then project: a crossing keeps the
	// same base vertex across consecutive layered vertices (the fabric
	// has no self-loops, so equal consecutive base ids happen only at
	// crossings) and records the stage's chosen gateway.
	var rev []int
	for x := target; x != -1; x = int(prev[x]) {
		rev = append(rev, x)
	}
	res := PathResult{Cost: cost, Walk: make([]int, 0, len(rev))}
	if L.stages > 0 {
		res.Gateways = make([]int, 0, L.stages)
	}
	for i := len(rev) - 1; i >= 0; i-- {
		v := rev[i] % L.n
		if len(res.Walk) > 0 && res.Walk[len(res.Walk)-1] == v {
			res.Gateways = append(res.Gateways, v)
			continue
		}
		res.Walk = append(res.Walk, v)
	}
	return res, nil
}
