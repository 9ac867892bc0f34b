package placement

import (
	"fmt"

	"vnfopt/internal/model"
	"vnfopt/internal/stroll"
)

// This file hosts the TOP-1 (single VM flow) solvers compared in the
// paper's Fig. 7: DP-Stroll (Algorithm 2), the exhaustive optimal, and
// PrimalDual (Algorithm 1). Each reduces TOP-1 to an n-stroll between the
// flow's source and destination hosts in the metric closure G''
// (Theorem 1) and converts the stroll's first n distinct switches back
// into a placement.

// top1 solves TOP-1 for one flow with solve, one of the stroll solvers,
// on the n-stroll instance of Theorem 1: closure index 0 is s(v_1), index
// 1 is s(v'_1) (kept separate even when the two VMs share a host,
// matching the paper's n-tour construction in Fig. 5), and indices 2…
// are the switches. The stroll's first n distinct switches are the
// placement, priced by the model objective C_a (which shortcuts any
// revisits in the walk).
func top1(d *model.PPDC, f model.VMPair, n int, solve func(stroll.Instance) (stroll.Result, error)) (model.Placement, float64, stroll.Result, error) {
	if d == nil {
		return nil, 0, stroll.Result{}, fmt.Errorf("placement: nil PPDC")
	}
	keep := append([]int{f.Src, f.Dst}, d.Topo.Switches...)
	in := stroll.Instance{Cost: d.APSP.CostMatrix(keep), S: 0, T: 1, N: n}
	if err := in.Validate(); err != nil {
		return nil, 0, stroll.Result{}, err
	}
	res, err := solve(in)
	if err != nil {
		return nil, 0, stroll.Result{}, err
	}
	p := make(model.Placement, 0, len(res.Visited))
	for _, v := range res.Visited {
		p = append(p, keep[v])
	}
	return p, d.CommCost(model.Workload{f}, p), res, nil
}

// Top1DP solves TOP-1 with the paper's Algorithm 2 (DP-Stroll).
func Top1DP(d *model.PPDC, f model.VMPair, n int) (model.Placement, float64, error) {
	p, c, _, err := top1(d, f, n, stroll.DP)
	return p, c, err
}

// Top1Optimal solves TOP-1 exactly (within nodeBudget; 0 = unlimited) and
// also reports whether optimality was proven.
func Top1Optimal(d *model.PPDC, f model.VMPair, n, nodeBudget int) (model.Placement, float64, bool, error) {
	p, c, res, err := top1(d, f, n, func(in stroll.Instance) (stroll.Result, error) { return stroll.Exhaustive(in, nodeBudget) })
	return p, c, res.Optimal, err
}

// Top1PrimalDual solves TOP-1 with the primal-dual Algorithm 1.
func Top1PrimalDual(d *model.PPDC, f model.VMPair, n int) (model.Placement, float64, error) {
	p, c, _, err := top1(d, f, n, stroll.PrimalDual)
	return p, c, err
}
