package placement

import (
	"context"
	"fmt"
	"math"
	"slices"

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
// sweep costs O(n·|V_s|³) rather than the naive O(n·|V_s|⁴). A table reads
// only the switch closure and its egress, so it is a function of the fabric
// alone: the tables live in the cost cache's FabricMemo, and one table per
// egress serves every consult on the fabric — each epoch of the engine
// fills only the cells no earlier epoch reached. Every cell is computed by
// the same loop from the same full layer below, whichever consult asks
// first, so placements and costs keep their bits.
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

	sw := d.Topo.Switches // closure index → graph vertex
	cost := pr.Cache.SwitchCosts()
	tabs := pr.Cache.FabricMemo(func() any { return make([]*stroll.DPTable, cost.Len()) }).([]*stroll.DPTable)
	lambda := w.TotalRate()

	// Seed the incumbent with Steering so the bound-based pruning below
	// bites immediately (Steering is O(n·|V_s|) and always feasible).
	bestCost := math.Inf(1)
	var best model.Placement
	if p, c, err := (Steering{}).PlaceProblem(ctx, pr); err == nil {
		best, bestCost = p, c
	}

	// Admissible lower bounds for pruning whole egress/ingress branches:
	// any n-VNF chain costs at least Λ·(n−1)·floor — the fabric's least
	// link weight, below every closure cost — and any placement pays at
	// least the cheapest ingress. A looser floor only lets more candidates
	// be evaluated, none of which beats the incumbent.
	minIn := math.Inf(1)
	for _, v := range sw {
		if in[v] < minIn {
			minIn = in[v]
		}
	}
	chainLB := lambda * float64(n-1) * cost.Floor()

	// Visit egress switches cheapest-first; once the bound exceeds the
	// incumbent every later egress is prunable too.
	egOrder := make([]byCost, len(sw))
	for i, v := range sw {
		egOrder[i] = byCost{eg[v], int32(i)}
	}
	sortByCost(egOrder)
	// The ingress sort starts from the egress permutation: it decides
	// where equal ingress costs fall, and with them which of equal-cost
	// placements is kept.
	inOrder := make([]byCost, len(sw))
	for j, t := range egOrder {
		inOrder[j] = byCost{in[sw[t.i]], t.i}
	}
	sortByCost(inOrder)

	for _, t := range egOrder {
		tj, egT := int(t.i), t.key
		if egT+minIn+chainLB >= bestCost {
			break // sorted: no later egress can win either
		}
		for _, s := range inOrder {
			sj := int(s.i)
			if sj == tj {
				continue
			}
			if s.key+egT+chainLB >= bestCost {
				break // sorted: no later ingress can win for this egress
			}
			if tabs[tj] == nil {
				tabs[tj] = stroll.NewDPTable(cost, tj)
			}
			res, err := tabs[tj].Stroll(sj, n-2, a.MaxEdges)
			if err != nil {
				return nil, 0, err
			}
			cand := s.key + egT + lambda*res.Cost
			if cand < bestCost {
				p := make(model.Placement, 0, n)
				p = append(p, sw[sj])
				for _, v := range res.Visited {
					p = append(p, sw[v])
				}
				p = append(p, sw[tj])
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

// byCost is a switch's closure index under a cost: an entry of DP's
// egress and ingress orders, the key beside the index so a sort reads
// neither through the switch list.
type byCost struct {
	key float64
	i   int32
}

// sortByCost sorts ks by key, ascending, into the permutation sort.Slice
// gives under key <: both run the same generated pdqsort, which only asks
// whether the comparator is negative, and the comparator is < itself, so
// +Inf and NaN order as they did (cmp.Compare would put NaN first).
func sortByCost(ks []byCost) {
	slices.SortFunc(ks, func(a, b byCost) int {
		switch {
		case a.key < b.key:
			return -1
		case b.key < a.key:
			return 1
		}
		return 0
	})
}

func errNoPlacement(n int) error {
	return fmt.Errorf("placement: no feasible placement for %d VNFs", n)
}
