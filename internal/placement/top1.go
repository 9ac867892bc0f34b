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

// top1Instance builds the n-stroll instance of Theorem 1 for one flow:
// closure index 0 is s(v_1), index 1 is s(v'_1) (kept separate even when
// the two VMs share a host, matching the paper's n-tour construction in
// Fig. 5), and indices 2… are the switches. The returned slice maps
// closure indices back to graph vertices.
func top1Instance(d *model.PPDC, f model.VMPair, n int) (stroll.Instance, []int, error) {
	if d == nil {
		return stroll.Instance{}, nil, fmt.Errorf("placement: nil PPDC")
	}
	keep := make([]int, 0, 2+len(d.Topo.Switches))
	keep = append(keep, f.Src, f.Dst)
	keep = append(keep, d.Topo.Switches...)
	in := stroll.Instance{Cost: d.APSP.CostMatrix(keep), S: 0, T: 1, N: n}
	if err := in.Validate(); err != nil {
		return stroll.Instance{}, nil, err
	}
	return in, keep, nil
}

// top1Result converts a stroll result back into a placement and evaluates
// the model objective C_a (which shortcuts any revisits in the walk).
func top1Result(d *model.PPDC, f model.VMPair, keep []int, res stroll.Result) (model.Placement, float64) {
	p := make(model.Placement, 0, len(res.Visited))
	for _, v := range res.Visited {
		p = append(p, keep[v])
	}
	return p, d.CommCost(model.Workload{f}, p)
}

// Top1DP solves TOP-1 with the paper's Algorithm 2 (DP-Stroll).
func Top1DP(d *model.PPDC, f model.VMPair, n int) (model.Placement, float64, error) {
	in, keep, err := top1Instance(d, f, n)
	if err != nil {
		return nil, 0, err
	}
	res, err := stroll.DP(in)
	if err != nil {
		return nil, 0, err
	}
	p, c := top1Result(d, f, keep, res)
	return p, c, nil
}

// Top1Optimal solves TOP-1 exactly (within nodeBudget; 0 = unlimited) and
// also reports whether optimality was proven.
func Top1Optimal(d *model.PPDC, f model.VMPair, n, nodeBudget int) (model.Placement, float64, bool, error) {
	in, keep, err := top1Instance(d, f, n)
	if err != nil {
		return nil, 0, false, err
	}
	res, err := stroll.Exhaustive(in, nodeBudget)
	if err != nil {
		return nil, 0, false, err
	}
	p, c := top1Result(d, f, keep, res)
	return p, c, res.Optimal, nil
}

// Top1PrimalDual solves TOP-1 with the primal-dual Algorithm 1.
func Top1PrimalDual(d *model.PPDC, f model.VMPair, n int) (model.Placement, float64, error) {
	in, keep, err := top1Instance(d, f, n)
	if err != nil {
		return nil, 0, err
	}
	res, err := stroll.PrimalDual(in)
	if err != nil {
		return nil, 0, err
	}
	p, c := top1Result(d, f, keep, res)
	return p, c, nil
}
