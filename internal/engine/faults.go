package engine

import (
	"context"
	"errors"
	"fmt"

	"vnfopt/internal/fault"
	"vnfopt/internal/migration"
	"vnfopt/internal/model"
)

// ErrInfeasible reports a fault transition that would leave the fabric
// unable to host the SFC (no live switch region with enough capacity).
// ApplyFaults rejects such transitions atomically: the engine keeps
// serving on its previous state, and the daemon maps the error to 503.
var ErrInfeasible = errors.New("engine: no feasible placement on the degraded fabric")

// FaultResult reports one topology-event transition.
type FaultResult struct {
	// Active is the fault set after the transition, sorted.
	Active []fault.Fault `json:"active"`
	// Degraded reports whether any fault remains active.
	Degraded bool `json:"degraded"`
	// Injected/Healed count the faults this call actually added/removed
	// (re-injecting an active fault is a no-op, not an error).
	Injected int `json:"injected"`
	Healed   int `json:"healed"`
	// Unserved lists the flows excluded from service after the
	// transition, with reasons.
	Unserved []fault.UnservedFlow `json:"unserved,omitempty"`
	// Repair is the repair pass that re-validated the placement on the
	// new fabric (nil when the call was a no-op).
	Repair *migration.RepairResult `json:"repair,omitempty"`
}

// ApplyFaults is the engine's topology-event path, the structural
// counterpart of the rate-ingest path: inject marks links/switches/hosts
// down, heal brings them back, and the engine atomically swaps in the
// degraded view, replans service (excluding unreachable flows), rebuilds
// the aggregated cost cache over the served workload, and runs a repair
// migration so the placement only ever uses live switches.
//
// The repair consults the engine's configured migrator once via
// migration.Repair and commits its result: the exact consult, or the
// greedy fallback when the consult fails or is cancelled. Every migrator
// the engine runs is a pure function of its Problem, so asking again
// could only return the same fallback. Repair never leaves the engine on
// a dead switch once a feasible patch exists.
//
// On any error the engine state is untouched. The call fails with
// ErrInfeasible (wrapped) when the surviving fabric cannot host the SFC.
func (e *Engine) ApplyFaults(ctx context.Context, inject, heal []fault.Fault) (*FaultResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	next := e.faults
	injected, healed := 0, 0
	for _, f := range inject {
		if err := f.Validate(e.cfg.PPDC); err != nil {
			return nil, fmt.Errorf("engine: inject: %w", err)
		}
		if !next.Contains(f) {
			injected++
		}
		next = next.Add(f)
	}
	for _, f := range heal {
		// Identity match, not exact match: healing a degrade names the
		// link, never the factor it was injected with.
		if !next.Active(f) {
			return nil, fmt.Errorf("engine: heal of inactive fault %s", f)
		}
		next = next.Remove(f)
		healed++
	}
	if injected == 0 && healed == 0 {
		return e.faultResult(nil, 0, 0), nil
	}

	// Fold pending rates into the flow table the service plan and the
	// rebuilt cache see (the cache is reconstructed below either way) — a
	// copy until the commit, so a refused transition keeps them pending.
	flows := e.flows
	if len(e.touched) > 0 {
		flows = append(model.Workload(nil), e.flows...)
		for _, i := range e.touched {
			flows[i].Rate = e.pending[i]
		}
	}

	// Delta-update from the currently served view (nil when pristine):
	// only the Dijkstra sources the transition invalidates are re-run,
	// bit-identical to the full rebuild fault.Apply would do.
	view, err := fault.ApplyDelta(e.cfg.PPDC, e.view, next)
	if err != nil {
		return nil, err
	}
	plan := view.PlanService(flows)
	if err := plan.Feasible(e.cfg.SFC.Len()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}

	// One cost cache per event, derived from the current one: the repair
	// prices against it and the commit below installs the same object.
	cache := e.cache.OnFabric(plan.PPDC, plan.Served)
	res, err := migration.Repair(ctx, cache.Problem(e.cfg.SFC), e.cfg.PPDC, e.p, e.cfg.Mu, e.mig)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}

	// Commit: swap flow table, serving model, cache, masks, and placement
	// together under the engine lock.
	e.flows = flows
	e.dropPending()
	// The serving model is the one the cache aggregates over. Once the
	// last fault heals that is cfg.PPDC itself: ApplyDelta hands the
	// pristine model back for an empty fault set and PlanService keeps a
	// connected fabric whole.
	e.cache, e.d = cache, plan.PPDC
	if next.Empty() {
		e.view, e.servable, e.unserved = nil, nil, nil
	} else {
		e.view, e.servable, e.unserved = view, plan.Servable, plan.Unserved
	}
	e.faults = next
	e.met.FaultsInjected += int64(injected)
	e.met.FaultsHealed += int64(healed)
	e.met.Repairs++
	if res.Fallback {
		e.met.RepairFallbacks++
	}
	if res.Moves > 0 {
		e.p = res.Placement.Clone()
		e.met.Migrations++
		e.met.Moves += res.Moves
		e.lastMigEpoch = e.epoch
	}
	// Re-anchor the drift trigger: the committed reference was priced on
	// the previous fabric and workload.
	cur := e.cache.CommCost(e.p)
	e.committedCost = cur
	e.committedEpoch = e.epoch

	// Re-route on the new serving model: the router is rebased onto its
	// weights, loads cleared, so the pass is unpriced. The transition is
	// already committed, so a routing failure — an engine invariant
	// violation, since capacities and placements were validated —
	// degrades to an event plus a dropped report rather than unwinding
	// the fault apply.
	if e.router != nil {
		e.router.Rebase(e.d)
	}
	rerr := e.routeEpoch()
	if rerr != nil {
		e.obs.observeError(e.epoch, rerr)
	}
	e.open = rerr != nil
	out := e.faultResult(res, injected, healed)
	e.obs.observeFaults(out, cache.ClosureRowsCopied())
	e.publish(cur)
	return out, nil
}

// FaultState reports the active fault set, sorted, the degraded flag
// and the unserved flows, read under one lock: all three from one
// transition.
func (e *Engine) FaultState() *FaultResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.faultResult(nil, 0, 0)
}

// faultResult assembles a FaultResult from the current engine state.
// Called with e.mu held.
func (e *Engine) faultResult(res *migration.RepairResult, injected, healed int) *FaultResult {
	return &FaultResult{
		Active:   e.faults.Faults(),
		Degraded: e.view != nil,
		Injected: injected,
		Healed:   healed,
		Unserved: append([]fault.UnservedFlow(nil), e.unserved...),
		Repair:   res,
	}
}
