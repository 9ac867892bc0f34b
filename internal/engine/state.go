package engine

import (
	"encoding/json"
	"fmt"
	"slices"

	"vnfopt/internal/fault"
	"vnfopt/internal/model"
	"vnfopt/internal/sfcroute"
)

// State is the engine's durable core — everything needed to resume the
// control loop after a crash or restart, given the same Config (the PPDC,
// SFC, flow endpoints, and policy are configuration, not state). The
// daemon writes one into a scenario's log with every checkpoint.
type State struct {
	// Epoch is the number of completed epochs.
	Epoch int `json:"epoch"`
	// Rates holds the live rate of every flow, indexed as Config.Base.
	Rates []float64 `json:"rates"`
	// Placement is the committed placement.
	Placement model.Placement `json:"placement"`
	// CommittedCost/CommittedEpoch are the drift trigger's reference.
	CommittedCost  float64 `json:"committed_cost"`
	CommittedEpoch int     `json:"committed_epoch"`
	// LastMigration is the epoch of the last commit (-1 = none).
	LastMigration int `json:"last_migration"`
	// Faults holds the active topology faults; resume reapplies them so
	// a restarted engine comes back in the same degraded mode it left.
	Faults []fault.Fault `json:"faults,omitempty"`
	// PricedFrom holds the link loads that priced the last routing pass,
	// in link order (Routing.Alpha > 0; absent when that pass ran
	// unpriced).
	// resume re-runs the pass from them, so the routing report and every
	// later pass come out as the saved engine's.
	PricedFrom []PricedLink `json:"priced_from,omitempty"`
	// Metrics carries the monotonic counters across the restart.
	Metrics Metrics `json:"metrics"`
}

// PricedLink is one link's load in State.PricedFrom.
type PricedLink = sfcroute.PricedLink

// State captures the engine's durable core. Pending (un-stepped) updates
// are not part of it: an epoch that has not closed has not happened — a
// caller that must lose nothing captures a Settled engine.
func (e *Engine) State() *State {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := &State{
		Epoch:          e.epoch,
		Rates:          e.flows.Rates(),
		Placement:      e.p.Clone(),
		CommittedCost:  e.committedCost,
		CommittedEpoch: e.committedEpoch,
		LastMigration:  e.lastMigEpoch,
		Faults:         e.faults.Faults(),
		Metrics:        e.met,
	}
	st.Metrics.Trajectory = append([]float64(nil), e.met.Trajectory...)
	if len(e.pricedFrom) > 0 {
		st.PricedFrom = slices.Clone(e.pricedFrom)
	}
	return st
}

// MarshalState serializes State as JSON.
func (e *Engine) MarshalState() ([]byte, error) {
	return json.Marshal(e.State())
}

// resume builds an engine from a configuration plus a saved State,
// restoring rates, placement, trigger reference, and counters. The Config
// must describe the same scenario the State was captured from (same flow
// count and fabric); the placement is re-validated against it.
func resume(cfg Config, st *State) (*Engine, error) {
	if st == nil {
		return nil, fmt.Errorf("engine: nil state")
	}
	if len(st.Rates) != len(cfg.Base) {
		return nil, fmt.Errorf("engine: state has %d rates for %d flows", len(st.Rates), len(cfg.Base))
	}
	if st.Placement == nil {
		return nil, fmt.Errorf("engine: state has no placement")
	}
	cfg.Initial = st.Placement
	e, err := build(cfg)
	if err != nil {
		return nil, err
	}
	e.flows = e.flows.WithRates(st.Rates)
	e.cache.SetWorkload(e.flows)
	if len(st.Faults) > 0 {
		// Reapply the saved faults silently: the saved placement was
		// already repaired, so no new repair pass runs — it only has to
		// still validate on the degraded serving model.
		fs := fault.NewFaultSet(st.Faults...)
		v, err := fault.ApplyDelta(cfg.PPDC, nil, fs)
		if err != nil {
			return nil, fmt.Errorf("engine: state faults: %w", err)
		}
		plan := v.PlanService(e.flows)
		if err := plan.Feasible(cfg.SFC.Len()); err != nil {
			return nil, fmt.Errorf("engine: state faults: %w", err)
		}
		if err := st.Placement.Validate(plan.PPDC, cfg.SFC); err != nil {
			return nil, fmt.Errorf("engine: state placement invalid on degraded fabric: %w", err)
		}
		e.cache = plan.PPDC.NewWorkloadCache(plan.Served)
		e.faults = fs
		e.d, e.view, e.servable, e.unserved = plan.PPDC, v, plan.Servable, plan.Unserved
	}
	e.epoch = st.Epoch
	e.committedCost = st.CommittedCost
	e.committedEpoch = st.CommittedEpoch
	e.lastMigEpoch = st.LastMigration
	e.met = st.Metrics
	e.met.Trajectory = append([]float64(nil), st.Metrics.Trajectory...)
	// The routing pass begin runs is the saved engine's last one over
	// again: same rates, placement and serving model, priced from the
	// same loads.
	return e.begin(e.cache.CommCost(e.p), st.PricedFrom)
}

// ResumeJSON is resume from serialized state.
func ResumeJSON(cfg Config, data []byte) (*Engine, error) {
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("engine: bad state: %w", err)
	}
	return resume(cfg, &st)
}
