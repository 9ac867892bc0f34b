package migration

import (
	"context"
	"fmt"
	"math"

	"vnfopt/internal/model"
)

// RepairResult reports one placement repair on a degraded fabric.
type RepairResult struct {
	// Placement is the repaired placement, valid on the degraded model.
	Placement model.Placement `json:"placement"`
	// Cost is the repair's total cost C_t = C_b + C_a(m), where forced
	// moves (VNFs whose switch died or left the service region) price
	// C_b on the pristine metric — the state still has to travel the
	// physical distance the healthy fabric implied — and voluntary moves
	// price on the degraded metric.
	Cost float64 `json:"cost"`
	// Forced lists the VNF indices that had to move because their switch
	// is no longer a valid host.
	Forced []int `json:"forced,omitempty"`
	// Moves is the total number of VNFs that moved (forced + voluntary).
	Moves int `json:"moves"`
	// Fallback reports that the exact TOM consult failed or was cancelled
	// and the greedy patch was committed instead.
	Fallback bool `json:"fallback"`
	// FallbackReason carries the consult error when Fallback is true.
	FallbackReason string `json:"fallback_reason,omitempty"`
}

// Repair computes a repair migration after a topology fault: given the
// Problem on the degraded serving model (live switches only — typically
// fault.ServicePlan.PPDC — with the served workload and the cost cache
// over it; only read here, so the caller builds it once per fault event
// and goes on serving from it) and the pristine
// model the current placement p was computed on, it returns a placement
// on surviving switches minimizing C_t.
//
// The repair runs in two stages:
//
//  1. Greedy patch: every VNF whose switch is dead or outside the
//     serving model is relocated to the live switch minimizing the
//     patched placement's C_a plus μ times the pristine-metric distance
//     of the forced move, respecting capacity/distinct-switch
//     constraints. The patch alone is a feasible repair.
//  2. TOM consult: the inner migrator (the engine's own) optimizes
//     from the patched placement over the degraded fabric — exactly
//     the machinery the rate-churn path uses.
//     If the consult errors, panics, or ctx is cancelled, the greedy
//     patch stands (Fallback=true); repair never fails once a feasible
//     patch exists.
//
// Repair returns an error only when no feasible patch exists (fewer
// usable switches than the SFC needs) or the inputs are inconsistent.
func Repair(ctx context.Context, pr model.Problem, pristine *model.PPDC, p model.Placement, mu float64, inner Migrator) (*RepairResult, error) {
	d, w, cache, sfc := pr.PPDC, pr.Workload, pr.Cache, pr.SFC
	if d == nil || pristine == nil {
		return nil, fmt.Errorf("migration: repair needs degraded and pristine models")
	}
	if len(p) != sfc.Len() {
		return nil, fmt.Errorf("migration: repair placement covers %d VNFs, SFC has %d", len(p), sfc.Len())
	}
	if mu < 0 {
		return nil, fmt.Errorf("migration: negative migration coefficient %v", mu)
	}
	if err := w.Validate(d); err != nil {
		return nil, err
	}
	alive := make(map[int]bool, len(d.Topo.Switches))
	for _, s := range d.Topo.Switches {
		alive[s] = true
	}
	res := &RepairResult{}
	patched := p.Clone()
	count := make(map[int]int, len(p))
	for _, s := range patched {
		if alive[s] {
			count[s]++
		}
	}

	// Provisional pass: park every displaced VNF on any feasible live
	// switch first. Until the whole placement is live, candidate C_a
	// values are Inf (chain edges from a dead switch), so the greedy
	// argmin below needs a fully live starting point.
	for j, s := range patched {
		if alive[s] {
			continue
		}
		res.Forced = append(res.Forced, j)
		parked := false
		for _, cand := range d.Topo.Switches {
			if d.CapFits(count, cand) {
				patched[j] = cand
				count[cand]++
				parked = true
				break
			}
		}
		if !parked {
			return nil, fmt.Errorf("migration: no live switch can host %s (need %d, %d usable switches)",
				sfc.Names[j], sfc.Len(), len(d.Topo.Switches))
		}
	}

	// Refinement sweep: re-choose each forced VNF's switch to minimize
	// the patched placement's cost. Forced moves price C_b on the
	// pristine metric — the degraded distance from a dead switch is Inf
	// and would poison the choice; the physical state transfer still
	// travels where the healthy fabric put it.
	for _, j := range res.Forced {
		if err := ctx.Err(); err != nil {
			break // keep the provisional parking; repair stays feasible
		}
		count[patched[j]]--
		best, bestCost := patched[j], math.Inf(1)
		for _, cand := range d.Topo.Switches {
			if !d.CapFits(count, cand) {
				continue
			}
			patched[j] = cand
			c := mu*pristine.Cost(p[j], cand) + cache.CommCost(patched)
			if c < bestCost {
				best, bestCost = cand, c
			}
		}
		patched[j] = best
		count[best]++
	}
	if err := patched.Validate(d, sfc); err != nil {
		// The greedy patch respects capacity by construction; a failure
		// here means p was invalid in a way faults don't explain.
		return nil, fmt.Errorf("migration: repair patch: %w", err)
	}

	// repairCost prices a candidate target m against the original p.
	repairCost := func(m model.Placement) float64 {
		cb := 0.0
		for j := range p {
			if p[j] == m[j] {
				continue
			}
			if alive[p[j]] {
				cb += d.Cost(p[j], m[j])
			} else {
				cb += pristine.Cost(p[j], m[j])
			}
		}
		return mu*cb + cache.CommCost(m)
	}

	final := patched
	if err := ctx.Err(); err != nil {
		res.Fallback = true
		res.FallbackReason = err.Error()
	} else if m, _, err := Consult(ctx, inner, pr, patched, mu); err != nil {
		res.Fallback = true
		res.FallbackReason = err.Error()
	} else if m.Validate(d, sfc) == nil {
		final = m
	}

	res.Placement = final.Clone()
	res.Cost = repairCost(final)
	res.Moves = MigrationCount(p, final)
	return res, nil
}
