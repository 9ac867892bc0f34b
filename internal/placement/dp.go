package placement

import (
	"context"
	"fmt"
	"math"
	"sort"

	"vnfopt/internal/model"
	"vnfopt/internal/stroll"
)

// DP is the paper's Algorithm 3: for every ordered (ingress, egress)
// switch pair it solves an (n−2)-stroll between them with the Algorithm-2
// dynamic program, then keeps the juxtaposition of minimum total cost
//
//	C_a = ingress[p(1)] + Λ·stroll(p(1), p(n), n−2) + egress[p(n)].
//
// One DP table per egress switch serves all ingress switches, so the whole
// sweep costs O(n·|V_s|³) rather than the naive O(n·|V_s|⁴).
//
// DP follows the paper's distinct-switch model: even when the PPDC allows
// colocation it only produces all-distinct placements (and so needs
// n ≤ |V_s|); use Optimal to exploit spare switch capacity.
type DP struct {
	// MaxEdges caps the per-query edge ramp of the stroll DP
	// (0 = solver default).
	MaxEdges int
}

// Name implements Solver.
func (DP) Name() string { return "DP" }

// Place implements Solver.
func (a DP) Place(d *model.PPDC, w model.Workload, sfc model.SFC) (model.Placement, float64, error) {
	pr, err := d.NewProblem(w, sfc)
	if err != nil {
		return nil, 0, err
	}
	return a.PlaceProblem(context.TODO(), pr)
}

// PlaceProblem implements ProblemSolver: Algorithm 3 over pr's endpoint
// vectors. The sweep is polynomial and does not poll ctx.
func (a DP) PlaceProblem(ctx context.Context, pr model.Problem) (model.Placement, float64, error) {
	d, w, sfc := pr.PPDC, pr.Workload, pr.SFC
	if err := checkInputs(d, w, sfc); err != nil {
		return nil, 0, err
	}
	n := sfc.Len()
	in, eg := pr.Cache.EndpointCosts()
	switch n {
	case 1:
		p, c := bestSingle(d, w, in, eg)
		return p, c, nil
	case 2:
		p, c := bestPair(d, w, in, eg)
		return p, c, nil
	}

	si := newSwitchIndex(d)
	cost := pr.Cache.SwitchCosts()
	lambda := w.TotalRate()

	// Seed the incumbent with Steering so the bound-based pruning below
	// bites immediately (Steering is O(n·|V_s|) and always feasible).
	bestCost := math.Inf(1)
	var best model.Placement
	if p, c, err := (Steering{}).PlaceProblem(ctx, pr); err == nil {
		best, bestCost = p, c
	}

	// Admissible lower bounds for pruning whole egress/ingress branches:
	// any n-VNF chain costs at least Λ·(n−1)·minEdge, and any placement
	// pays at least the cheapest ingress.
	minEdge := math.Inf(1)
	for i := range cost {
		for j := range cost[i] {
			if i != j && cost[i][j] < minEdge {
				minEdge = cost[i][j]
			}
		}
	}
	minIn := math.Inf(1)
	for _, v := range si.vertices {
		if in[v] < minIn {
			minIn = in[v]
		}
	}
	chainLB := lambda * float64(n-1) * minEdge

	// Visit egress switches cheapest-first; once the bound exceeds the
	// incumbent every later egress is prunable too.
	egOrder := make([]int, len(si.vertices))
	for i := range egOrder {
		egOrder[i] = i
	}
	sort.Slice(egOrder, func(x, y int) bool {
		return eg[si.vertices[egOrder[x]]] < eg[si.vertices[egOrder[y]]]
	})
	inOrder := make([]int, len(si.vertices))
	copy(inOrder, egOrder)
	sort.Slice(inOrder, func(x, y int) bool {
		return in[si.vertices[inOrder[x]]] < in[si.vertices[inOrder[y]]]
	})

	for _, tj := range egOrder {
		egT := eg[si.vertices[tj]]
		if egT+minIn+chainLB >= bestCost {
			break // sorted: no later egress can win either
		}
		var tb *stroll.DPTable
		for _, sj := range inOrder {
			if sj == tj {
				continue
			}
			if in[si.vertices[sj]]+egT+chainLB >= bestCost {
				break // sorted: no later ingress can win for this egress
			}
			if tb == nil {
				tb = stroll.NewDPTable(cost, tj)
			}
			res, err := tb.Stroll(sj, n-2, a.MaxEdges)
			if err != nil {
				return nil, 0, err
			}
			cand := in[si.vertices[sj]] + egT + lambda*res.Cost
			if cand < bestCost {
				p := make(model.Placement, 0, n)
				p = append(p, si.vertices[sj])
				for _, v := range res.Visited {
					p = append(p, si.vertices[v])
				}
				p = append(p, si.vertices[tj])
				bestCost = cand
				best = p
			}
		}
	}
	if best == nil {
		// Unreachable for connected PPDCs with enough switches, guarded
		// by checkInputs.
		return nil, 0, errNoPlacement(n)
	}
	// Report the model-evaluated cost: when the stroll walk revisited
	// nodes, the placement's chain shortcuts it and can only be cheaper.
	return best, d.CommCost(w, best), nil
}

func errNoPlacement(n int) error {
	return fmt.Errorf("placement: no feasible placement for %d VNFs", n)
}
