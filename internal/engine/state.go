package engine

import (
	"encoding/json"
	"fmt"

	"vnfopt/internal/fault"
	"vnfopt/internal/model"
)

// State is the engine's durable core — everything needed to resume the
// control loop after a crash or restart, given the same Config (the PPDC,
// SFC, flow endpoints, and policy are configuration, not state). The
// daemon persists one State per scenario on graceful shutdown.
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
	// Faults holds the active topology faults; Resume reapplies them so
	// a restarted engine comes back in the same degraded mode it left.
	Faults []fault.Fault `json:"faults,omitempty"`
	// Metrics carries the monotonic counters across the restart.
	Metrics Metrics `json:"metrics"`
}

// State captures the engine's durable core. Pending (un-stepped) updates
// are not part of it: an epoch that has not closed has not happened.
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
	return st
}

// MarshalState serializes State as JSON.
func (e *Engine) MarshalState() ([]byte, error) {
	return json.Marshal(e.State())
}

// Resume builds an engine from a configuration plus a saved State,
// restoring rates, placement, trigger reference, and counters. The Config
// must describe the same scenario the State was captured from (same flow
// count and fabric); the placement is re-validated against it.
func Resume(cfg Config, st *State) (*Engine, error) {
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
	e, err := New(cfg)
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
		cache := plan.PPDC.NewWorkloadCache(plan.Served)
		if e.obs != nil {
			cache.SetObserver(e.obs)
		}
		e.cache = cache
		e.faults = fs
		e.d, e.view, e.servable, e.unserved = plan.PPDC, v, plan.Servable, plan.Unserved
	}
	e.epoch = st.Epoch
	e.committedCost = st.CommittedCost
	e.committedEpoch = st.CommittedEpoch
	e.lastMigEpoch = st.LastMigration
	e.met = st.Metrics
	e.met.Trajectory = append([]float64(nil), st.Metrics.Trajectory...)
	e.publish(e.cache.CommCost(e.p))
	return e, nil
}

// ResumeJSON is Resume from serialized state.
func ResumeJSON(cfg Config, data []byte) (*Engine, error) {
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("engine: bad state: %w", err)
	}
	return Resume(cfg, &st)
}
