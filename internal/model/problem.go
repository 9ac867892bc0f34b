package model

import "fmt"

// Problem is one TOP/TOM instance as every solver sees it: a fabric, the
// workload on it, the aggregated cost cache built from exactly that
// workload on that fabric, and the chain to place. It exists so the
// aggregation is built once per traffic vector and read by every
// algorithm that runs on it — the engine's epoch cache serves the whole
// consult chain — instead of once per algorithm.
//
// A Problem is only ever made by PPDC.NewProblem or WorkloadCache.Problem,
// never assembled field by field: PPDC and Workload are the cache's own,
// so the three cannot disagree. It is a view, as short-lived as the
// cache's contents: a SetWorkload on Cache changes what Workload holds.
type Problem struct {
	PPDC     *PPDC
	Workload Workload
	Cache    *WorkloadCache
	SFC      SFC
}

// NewProblem validates w against d and builds the Problem of placing sfc
// for it, cost cache included. This is the way in for a caller that holds
// no cache yet; one that does (the engine) asks the cache.
func (d *PPDC) NewProblem(w Workload, sfc SFC) (Problem, error) {
	if d == nil {
		return Problem{}, fmt.Errorf("model: nil PPDC")
	}
	if err := w.Validate(d); err != nil {
		return Problem{}, err
	}
	return d.NewWorkloadCache(w).Problem(sfc), nil
}

// Problem returns the instance the cache currently describes: its fabric,
// the workload it was last set from (the cache's copy: shared storage,
// rewritten by SetWorkload — do not mutate) and itself, with sfc to place.
func (c *WorkloadCache) Problem(sfc SFC) Problem {
	return Problem{PPDC: c.d, Workload: c.flows, Cache: c, SFC: sfc}
}
