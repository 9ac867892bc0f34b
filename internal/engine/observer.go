package engine

import (
	"fmt"
	"time"

	"vnfopt/internal/obs"
)

// Observer is the engine's observability sink: a set of pre-resolved
// metric handles (so the Step hot path never does a registry lookup)
// plus an optional event log. Build one per engine with NewObserver; a
// nil *Observer disables instrumentation entirely — every use is behind
// one nil check, and the obs handles themselves are nil-safe, so the
// disabled configuration costs nothing measurable.
type Observer struct {
	// Registry is the backing registry (nil when metrics are disabled).
	Registry *obs.Registry
	// Events receives migration/error events (nil to drop them).
	Events *obs.EventLog

	epochSeconds    *obs.Histogram
	consultSeconds  *obs.Histogram
	improvement     *obs.Histogram
	rebuildSeconds  *obs.Histogram
	sfcPassSeconds  *obs.Histogram
	drift           *obs.Gauge
	commCost        *obs.Gauge
	degraded        *obs.Gauge
	activeFaults    *obs.Gauge
	unservedFlows   *obs.Gauge
	sfcAdmitted     *obs.Gauge
	sfcRejected     *obs.Gauge
	linkUtilization *obs.Gauge
	epochs          *obs.Counter
	updates         *obs.Counter
	coalesced       *obs.Counter
	consults        *obs.Counter
	migrations      *obs.Counter
	moves           *obs.Counter
	rebuilds        *obs.Counter
	closureRows     *obs.Counter
	faultsInjected  *obs.Counter
	faultsHealed    *obs.Counter
	repairs         *obs.Counter
	repairFallbacks *obs.Counter
	sfcSearches     *obs.Counter
	sfcSettled      *obs.Counter
}

// NewObserver resolves the engine metric family against r, labelling
// every series with the scenario name when non-empty. Either argument
// may be nil; a fully nil observer is better expressed as a nil
// *Observer.
func NewObserver(r *obs.Registry, events *obs.EventLog, scenario string) *Observer {
	l := ""
	if scenario != "" {
		l = fmt.Sprintf("{scenario=%q}", scenario)
	}
	return &Observer{
		Registry:        r,
		Events:          events,
		epochSeconds:    r.Histogram("vnfopt_engine_epoch_seconds" + l),
		consultSeconds:  r.Histogram("vnfopt_engine_consult_seconds" + l),
		improvement:     r.Histogram("vnfopt_engine_improvement" + l),
		rebuildSeconds:  r.Histogram("vnfopt_cache_rebuild_seconds" + l),
		sfcPassSeconds:  r.Histogram("vnfopt_sfcroute_pass_seconds" + l),
		drift:           r.Gauge("vnfopt_engine_drift_ratio" + l),
		commCost:        r.Gauge("vnfopt_engine_comm_cost" + l),
		degraded:        r.Gauge("vnfopt_engine_degraded" + l),
		activeFaults:    r.Gauge("vnfopt_engine_active_faults" + l),
		unservedFlows:   r.Gauge("vnfopt_engine_unserved_flows" + l),
		sfcAdmitted:     r.Gauge("vnfopt_sfcroute_admitted" + l),
		sfcRejected:     r.Gauge("vnfopt_sfcroute_rejected" + l),
		linkUtilization: r.Gauge("vnfopt_link_utilization" + l),
		epochs:          r.Counter("vnfopt_engine_epochs_total" + l),
		updates:         r.Counter("vnfopt_engine_updates_total" + l),
		coalesced:       r.Counter("vnfopt_engine_updates_coalesced_total" + l),
		consults:        r.Counter("vnfopt_engine_consults_total" + l),
		migrations:      r.Counter("vnfopt_engine_migrations_total" + l),
		moves:           r.Counter("vnfopt_engine_moves_total" + l),
		rebuilds:        r.Counter("vnfopt_cache_rebuilds_total" + l),
		closureRows:     r.Counter("vnfopt_cache_closure_rows_total" + l),
		faultsInjected:  r.Counter("vnfopt_engine_faults_injected_total" + l),
		faultsHealed:    r.Counter("vnfopt_engine_faults_healed_total" + l),
		repairs:         r.Counter("vnfopt_engine_repairs_total" + l),
		repairFallbacks: r.Counter("vnfopt_engine_repair_fallbacks_total" + l),
		sfcSearches:     r.Counter("vnfopt_sfcroute_searches_total" + l),
		sfcSettled:      r.Counter("vnfopt_sfcroute_settled_total" + l),
	}
}

// observeRebuild records one cost-cache rebuild by Step.
func (o *Observer) observeRebuild(elapsed time.Duration) {
	if o == nil {
		return
	}
	o.rebuilds.Inc()
	o.rebuildSeconds.Observe(elapsed.Seconds())
}

// observeIngest records one accepted Ingest batch.
func (o *Observer) observeIngest(accepted, coalesced int) {
	if o == nil {
		return
	}
	o.updates.Add(int64(accepted))
	o.coalesced.Add(int64(coalesced))
}

// observeStep records one closed epoch. drift is the pre-migration
// cost ratio against the committed reference (1 = no drift).
func (o *Observer) observeStep(res StepResult, drift float64, consultTime time.Duration, improvement float64) {
	if o == nil {
		return
	}
	o.epochs.Inc()
	o.epochSeconds.Observe(res.Elapsed.Seconds())
	o.drift.Set(drift)
	o.commCost.Set(res.CommCost)
	if res.Consulted {
		o.consults.Inc()
		o.consultSeconds.Observe(consultTime.Seconds())
	}
	if res.Migrated {
		o.migrations.Inc()
		o.moves.Add(int64(res.Moves))
		o.improvement.Observe(improvement)
		o.Events.Append("migration",
			fmt.Sprintf("epoch %d: %d VNFs moved", res.Epoch, res.Moves),
			map[string]float64{
				"epoch":       float64(res.Epoch),
				"moves":       float64(res.Moves),
				"mig_cost":    res.MigCost,
				"comm_cost":   res.CommCost,
				"improvement": improvement,
			})
	}
}

// observeRouting records one capacity-aware routing pass: how long it
// took (re-pricing and admission), how many
// shortest-path searches it ran and how many vertices they settled, the
// admission gauges, the hottest link's utilization, and an event when
// the pass rejected flows.
func (o *Observer) observeRouting(rep *RoutingReport, elapsed time.Duration, searches, settled int) {
	if o == nil {
		return
	}
	o.sfcPassSeconds.Observe(elapsed.Seconds())
	o.sfcSearches.Add(int64(searches))
	o.sfcSettled.Add(int64(settled))
	o.sfcAdmitted.Set(float64(rep.Admitted))
	o.sfcRejected.Set(float64(rep.Rejected))
	o.linkUtilization.Set(rep.MaxUtilization)
	if rep.Rejected > 0 {
		o.Events.Append("admission_rejected",
			fmt.Sprintf("epoch %d: %d flows rejected (rate %.6g), max link utilization %.3f",
				rep.Epoch, rep.Rejected, rep.RejectedRate, rep.MaxUtilization),
			map[string]float64{
				"epoch":           float64(rep.Epoch),
				"rejected":        float64(rep.Rejected),
				"rejected_rate":   rep.RejectedRate,
				"max_utilization": rep.MaxUtilization,
			})
	}
}

// observeFaults records one committed topology-event transition: the
// degraded-mode gauges plus fault/repair counters and events, and the
// switch-closure rows the event's cost cache copied for its repair.
func (o *Observer) observeFaults(res *FaultResult, closureRows int) {
	if o == nil {
		return
	}
	o.closureRows.Add(int64(closureRows))
	if res.Degraded {
		o.degraded.Set(1)
	} else {
		o.degraded.Set(0)
	}
	o.activeFaults.Set(float64(len(res.Active)))
	o.unservedFlows.Set(float64(len(res.Unserved)))
	o.faultsInjected.Add(int64(res.Injected))
	o.faultsHealed.Add(int64(res.Healed))
	kind := "fault_injected"
	if res.Injected == 0 {
		kind = "fault_healed"
	}
	o.Events.Append(kind,
		fmt.Sprintf("%d injected, %d healed; %d active, %d flows unserved",
			res.Injected, res.Healed, len(res.Active), len(res.Unserved)),
		map[string]float64{
			"injected": float64(res.Injected),
			"healed":   float64(res.Healed),
			"active":   float64(len(res.Active)),
			"unserved": float64(len(res.Unserved)),
		})
	if res.Repair == nil {
		return
	}
	o.repairs.Inc()
	if res.Repair.Fallback {
		o.repairFallbacks.Inc()
	}
	if res.Repair.Moves > 0 || res.Repair.Fallback {
		o.Events.Append("repair",
			fmt.Sprintf("repair moved %d VNFs (%d forced, cost %.6g, fallback=%v)",
				res.Repair.Moves, len(res.Repair.Forced), res.Repair.Cost, res.Repair.Fallback),
			map[string]float64{
				"moves":  float64(res.Repair.Moves),
				"forced": float64(len(res.Repair.Forced)),
				"cost":   res.Repair.Cost,
			})
	}
}

// observeError records a failed Step.
func (o *Observer) observeError(epoch int, err error) {
	if o == nil {
		return
	}
	o.Registry.Counter("vnfopt_engine_step_errors_total").Inc()
	o.Events.Append("step_error", fmt.Sprintf("epoch %d: %v", epoch, err),
		map[string]float64{"epoch": float64(epoch)})
}
