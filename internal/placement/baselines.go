package placement

import (
	"context"
	"math"

	"vnfopt/internal/model"
)

// The two literature baselines below are *delay*-optimizing, as in their
// source papers: Steering [55] minimizes the average traversal time of
// subscribers and Greedy [34] minimizes end-to-end delay increments. Both
// treat every flow equally — neither weights by the traffic rate λ_i.
// That rate-obliviousness is precisely the gap the paper's traffic-aware
// TOP algorithms exploit (Figs. 9 and 10): under diverse production rate
// mixes, the delay-optimal placement is far from traffic-optimal.

// Steering adapts the placement heuristic of Zhang et al. [55] to the
// paper's single-SFC model, following the paper's own description: "It
// picks the service with the highest dependency degree and finds its best
// location (i.e., minimizing the average time) until all services are
// placed. In our single-SFC model, Steering thus finds the best location
// for VNFs one by one."
//
// With one SFC every service carries every flow, so each service's
// dependency degree is identical and *its* best location — the point
// minimizing the average traversal time of the traffic through it — is
// the (rate-unweighted) traffic centroid:
//
//	score(x) = Σ_i [ c(s(v_i), x) + c(x, s(v'_i)) ] / l.
//
// Services therefore stack on distinct switches around that centroid in
// chain order. The resulting weaknesses are exactly what the paper's
// traffic-aware TOP exploits: the chain zigzags between same-tier switches
// (≥2 hops per link in a fat tree versus the optimal 1), and heavy flows
// get no priority over light ones.
type Steering struct{}

// Name implements Solver.
func (Steering) Name() string { return "Steering" }

// Place implements Solver.
func (a Steering) Place(d *model.PPDC, w model.Workload, sfc model.SFC) (model.Placement, float64, error) {
	pr, err := d.NewProblem(w, sfc)
	if err != nil {
		return nil, 0, err
	}
	return a.PlaceProblem(context.TODO(), pr)
}

// PlaceProblem implements ProblemSolver. The score is a function of the
// fabric and the flow endpoints only, so it reads the cache's unit-rate
// vectors, which rate churn does not rebuild.
func (Steering) PlaceProblem(_ context.Context, pr model.Problem) (model.Placement, float64, error) {
	d, w, sfc := pr.PPDC, pr.Workload, pr.SFC
	if err := checkInputs(d, w, sfc); err != nil {
		return nil, 0, err
	}
	n := sfc.Len()
	in, eg := pr.Cache.UnitEndpointCosts()
	used := make(map[int]int, n)
	p := make(model.Placement, 0, n)
	for j := 0; j < n; j++ {
		best := math.Inf(1)
		bestS := -1
		for _, s := range d.Topo.Switches {
			if !d.CapFits(used, s) {
				continue
			}
			if score := in[s] + eg[s]; score < best {
				best = score
				bestS = s
			}
		}
		if bestS < 0 {
			return nil, 0, errNoPlacement(n)
		}
		used[bestS]++
		p = append(p, bestS)
	}
	return p, d.CommCost(w, p), nil
}

// Greedy adapts the two-step heuristic of Liu et al. [34] per the paper's
// description: middleboxes are sorted by importance (the number of
// policies using them — equal for a single SFC, so chain order), then each
// takes the switch with the minimum *cost score*: "the increment of the
// total end-to-end delay by adding this MB plus the weighted average delay
// of all unplaced MBs to this MB". Concretely, when f_j lands on x with
// f_1..f_{j-1} already placed, the partial end-to-end path of every flow
// is src → p(1) → … → p(j−1) → x → dst, so the increment is the average
// (rate-unweighted — Liu et al. optimize delay) of
//
//	c(p(j−1), x) + c(x, dst_i) − c(p(j−1), dst_i)
//
// and the look-ahead term charges (n−j−1) times the mean switch distance
// from x for the MBs still to be routed through.
type Greedy struct{}

// Name implements Solver.
func (Greedy) Name() string { return "Greedy" }

// Place implements Solver.
func (Greedy) Place(d *model.PPDC, w model.Workload, sfc model.SFC) (model.Placement, float64, error) {
	if err := checkInputs(d, w, sfc); err != nil {
		return nil, 0, err
	}
	n := sfc.Len()
	// Every λ_i counts as 1: the cache's unit-rate endpoint vectors.
	in, eg := d.NewWorkloadCache(w).UnitEndpointCosts()
	l := float64(len(w))
	if l == 0 {
		l = 1
	}

	// avgDist[x] = mean shortest-path delay from switch x to all switches
	// (the possible locations of unplaced MBs).
	sw := d.Topo.Switches
	avgDist := make(map[int]float64, len(sw))
	for _, x := range sw {
		sum := 0.0
		for _, y := range sw {
			sum += d.APSP.Cost(x, y)
		}
		avgDist[x] = sum / float64(len(sw))
	}

	used := make(map[int]int, n)
	p := make(model.Placement, 0, n)
	for j := 0; j < n; j++ {
		best := math.Inf(1)
		bestS := -1
		unplaced := float64(n - j - 1)
		for _, s := range sw {
			if !d.CapFits(used, s) {
				continue
			}
			// Increment of the average end-to-end delay: the new hop
			// from the previous MB (or the sources) plus the change in
			// the closing leg to the destinations.
			score := eg[s] / l
			if j == 0 {
				score += in[s] / l
			} else {
				score += d.APSP.Cost(p[j-1], s) - eg[p[j-1]]/l
			}
			// Look-ahead: average delay of unplaced MBs to s.
			score += unplaced * avgDist[s]
			if score < best {
				best = score
				bestS = s
			}
		}
		if bestS < 0 {
			return nil, 0, errNoPlacement(n)
		}
		used[bestS]++
		p = append(p, bestS)
	}
	return p, d.CommCost(w, p), nil
}
