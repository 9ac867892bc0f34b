// Package engine is the online half of the system: a long-running,
// concurrency-safe placement engine that owns one PPDC + SFC + live
// workload and keeps the placement traffic-optimal as rates stream in.
//
// The paper's TOM "executes periodically to optimize a PPDC's network
// resource in the face of dynamic VM traffic"; the batch simulator
// (internal/sim) replays that as a precomputed hourly schedule. The engine
// turns it into a control loop:
//
//   - writers stream per-flow rate updates with Ingest; updates are
//     coalesced (last write wins per flow) into a pending set,
//   - Step closes an epoch: it folds the pending set into the flow table
//     and, when a served flow's rate changed, rebuilds the aggregated
//     WorkloadCache from the served workload — the cache is a function of
//     the rates, never of the order they arrived in,
//   - a drift trigger compares the epoch's communication cost against the
//     cost recorded when the placement was last committed; only when the
//     drift exceeds the hysteresis factor (and the cooldown has elapsed)
//     is the configured TOM migrator consulted, under a per-migration
//     move budget,
//   - the resulting placement is committed atomically: readers call
//     Snapshot (lock-free atomic pointer load) and never block behind
//     ingest, stepping, or a running migrator.
//
// The batch simulator drives this same loop with the always-consult
// policy, so the offline figures and the online daemon (cmd/vnfoptd)
// share one code path.
package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"vnfopt/internal/fault"
	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/sfcroute"
)

// Policy is the engine's migration-control knobs — when the TOM loop may
// act, independently of which migrator it consults.
type Policy struct {
	// Hysteresis gates the drift trigger: the migrator is consulted when
	// the epoch's communication cost exceeds Hysteresis × the cost
	// recorded at the last commit. Values ≤ 0 consult every epoch (the
	// batch-simulator behaviour); 1.1 tolerates 10% drift.
	Hysteresis float64 `json:"hysteresis"`
	// Cooldown is the minimum number of epochs between migrations (0 = no
	// cooldown).
	Cooldown int `json:"cooldown"`
	// Budget caps the VNF moves of one migration via migration.Budgeted
	// (0 = unlimited).
	Budget int `json:"budget"`
}

// Config describes one engine instance and is the one way to configure
// it. The first four fields (PPDC, SFC, Base, Mu) define the scenario;
// every field below them is optional, and its zero value is a real
// setting, not "unset" — a zero Policy consults the migrator every epoch.
type Config struct {
	// PPDC is the fabric.
	PPDC *model.PPDC
	// SFC is the chain every flow traverses.
	SFC model.SFC
	// Base provides the flow endpoints and the initial rates; flows are
	// addressed by their index in Base for the lifetime of the engine.
	Base model.Workload
	// Mu is the migration coefficient μ.
	Mu float64
	// Initial is the starting placement; nil computes one with Placer.
	Initial model.Placement
	// Placer computes the initial placement when Initial is nil
	// (nil = Algorithm 3).
	Placer placement.Solver
	// Migrator is the TOM algorithm the drift trigger consults
	// (nil = Algorithm 5, mPareto).
	Migrator migration.Migrator
	// Policy holds the hysteresis/cooldown/budget knobs.
	Policy Policy
	// Observer, when non-nil, receives metrics and events (see
	// Observer).
	Observer *Observer
	// Routing, when non-nil, enables the per-epoch capacity-aware SFC
	// routing pass (admission control + link utilization; see
	// RoutingConfig).
	Routing *RoutingConfig
}

// RateUpdate is one streaming event: flow Flow's rate is now Rate.
type RateUpdate struct {
	Flow int     `json:"flow"`
	Rate float64 `json:"rate"`
}

// Snapshot is the atomically-published view readers see: the committed
// placement and the costs that justify it. Readers own the returned
// struct; the engine never mutates a published snapshot.
type Snapshot struct {
	// Epoch is the number of completed Steps.
	Epoch int `json:"epoch"`
	// Placement is the committed placement.
	Placement model.Placement `json:"placement"`
	// CommCost is C_a of the live rates under Placement as of the last
	// completed epoch.
	CommCost float64 `json:"comm_cost"`
	// CommittedCost is C_a at the epoch Placement was committed — the
	// drift trigger's reference point.
	CommittedCost float64 `json:"committed_cost"`
	// CommittedEpoch is when Placement was committed (0 = initial).
	CommittedEpoch int `json:"committed_epoch"`
	// Migrations counts commits after the initial placement.
	Migrations int `json:"migrations"`
	// Degraded reports whether any topology fault is active.
	Degraded bool `json:"degraded"`
	// ActiveFaults is the number of active faults.
	ActiveFaults int `json:"active_faults"`
	// UnservedFlows is the number of flows excluded from service (dead
	// endpoint or partitioned away from the SFC's region); their traffic
	// is reported, never Inf-costed.
	UnservedFlows int `json:"unserved_flows"`
	// Routing digests the last capacity-aware routing pass (nil when
	// capacity routing is disabled).
	Routing *RoutingSummary `json:"routing,omitempty"`
}

// StepResult reports one closed epoch.
type StepResult struct {
	// Epoch is the 1-based epoch just completed.
	Epoch int `json:"epoch"`
	// CommCost is C_a of the epoch's rates under the (possibly new)
	// placement, from the aggregated cache.
	CommCost float64 `json:"comm_cost"`
	// MigCost is C_b(prev, new) when a migration was committed, else 0.
	MigCost float64 `json:"mig_cost"`
	// TotalCost is the epoch's cost: the migrator-reported C_t when it was
	// consulted (bit-identical to the batch simulator's accounting), else
	// CommCost.
	TotalCost float64 `json:"total_cost"`
	// Moves is the number of VNFs that moved this epoch.
	Moves int `json:"moves"`
	// Consulted reports whether the drift trigger fired and the migrator
	// ran.
	Consulted bool `json:"consulted"`
	// Migrated reports whether a new placement was committed.
	Migrated bool `json:"migrated"`
	// Placement is the committed placement after the epoch (a copy).
	Placement model.Placement `json:"placement"`
	// Routing digests the epoch's capacity-aware routing pass (nil when
	// disabled).
	Routing *RoutingSummary `json:"routing,omitempty"`
	// Elapsed is the wall-clock time of the Step call.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Metrics are the engine's monotonic counters, exported by the daemon's
// /metrics endpoint.
type Metrics struct {
	// Epochs is the number of completed Steps.
	Epochs int `json:"epochs"`
	// UpdatesAccepted counts rate updates accepted by Ingest.
	UpdatesAccepted int64 `json:"updates_accepted"`
	// Consults counts epochs in which the migrator ran.
	Consults int `json:"consults"`
	// Migrations counts committed migrations; Moves the VNFs they moved.
	Migrations int `json:"migrations"`
	Moves      int `json:"moves"`
	// UpdatesCoalesced counts accepted updates that overwrote a pending
	// update to the same flow (last write wins) before the epoch closed.
	UpdatesCoalesced int64 `json:"updates_coalesced"`
	// FaultsInjected/FaultsHealed count topology fault transitions;
	// Repairs counts repair passes run by topology events, and
	// RepairFallbacks the subset that committed the greedy fallback
	// because the exact TOM consult failed or was cancelled.
	FaultsInjected  int64 `json:"faults_injected"`
	FaultsHealed    int64 `json:"faults_healed"`
	Repairs         int   `json:"repairs"`
	RepairFallbacks int   `json:"repair_fallbacks"`
	// LastEpoch and TotalEpoch time the Step calls.
	LastEpoch  time.Duration `json:"last_epoch_ns"`
	TotalEpoch time.Duration `json:"total_epoch_ns"`
	// Trajectory is the per-epoch TotalCost history, capped at the most
	// recent trajectoryCap epochs.
	Trajectory []float64 `json:"cost_trajectory"`
}

// trajectoryCap bounds the in-memory cost history.
const trajectoryCap = 4096

// Engine is the online placement engine. All mutating calls are
// serialized internally; Snapshot is lock-free.
type Engine struct {
	mu  sync.Mutex
	cfg Config
	mig migration.Migrator // effective migrator (budget-wrapped)
	obs *Observer          // nil = uninstrumented

	flows model.Workload // live per-flow rates, indexed as Base
	cache *model.WorkloadCache
	p     model.Placement
	// The pending set: the coalesced rates of the next epoch, indexed as
	// Base. pending[i] is live only while isPending[i]; touched lists
	// those flows.
	pending   []float64
	isPending []bool
	touched   []int32

	// Topology-fault state (see faults.go). d is the active serving
	// model: cfg.PPDC while healthy, the fault view's service-region
	// model while degraded. servable masks flows excluded from service
	// (nil = all servable); the cache and every consult see only served
	// flows, so an unreachable pair can never Inf-poison a cost.
	d        *model.PPDC
	view     *fault.View
	faults   fault.FaultSet
	servable []bool
	unserved []fault.UnservedFlow

	// Capacity-aware routing state (see routing.go). router is built once,
	// over the pristine fabric, and rebased onto each serving model a
	// fault transition commits; route holds the last pass, pricedFrom
	// the link loads that priced it, in link order (Routing.Alpha > 0
	// only; empty after a rebase).
	router     *sfcroute.Router
	route      routePass
	pricedFrom []PricedLink

	epoch          int
	committedCost  float64
	committedEpoch int
	lastMigEpoch   int // epoch of the last commit; -1 before any
	// open says a failed Step holds its epoch open: the rates it folded
	// are live, the routing pass over them has not run.
	open bool

	met  Metrics
	snap atomic.Pointer[Snapshot]
}

// New validates the configuration, computes (or adopts) the initial
// placement, builds the aggregated cost cache, and publishes the first
// snapshot.
func New(cfg Config) (*Engine, error) {
	e, err := build(cfg)
	if err != nil {
		return nil, err
	}
	return e.begin(e.committedCost, nil)
}

// build is New up to, not including, the first routing pass and
// snapshot: resume restores its saved state in between.
func build(cfg Config) (*Engine, error) {
	if cfg.PPDC == nil {
		return nil, fmt.Errorf("engine: nil PPDC")
	}
	if cfg.SFC.Len() < 1 {
		return nil, fmt.Errorf("engine: empty SFC")
	}
	if cfg.Mu < 0 {
		return nil, fmt.Errorf("engine: negative μ %v", cfg.Mu)
	}
	if len(cfg.Base) == 0 {
		return nil, fmt.Errorf("engine: empty workload")
	}
	if err := cfg.Base.Validate(cfg.PPDC); err != nil {
		return nil, err
	}
	if cfg.Migrator == nil {
		cfg.Migrator = migration.MPareto{}
	}
	if cfg.Routing != nil {
		rc := *cfg.Routing // engine owns its copy; defaults don't leak back
		if rc.LinkCapacity <= 0 || math.IsNaN(rc.LinkCapacity) || math.IsInf(rc.LinkCapacity, 0) {
			return nil, fmt.Errorf("engine: routing link capacity %v must be positive and finite", rc.LinkCapacity)
		}
		if !(rc.SaturationThreshold >= 0 && rc.SaturationThreshold <= 1) {
			return nil, fmt.Errorf("engine: routing saturation threshold %v outside [0,1]", rc.SaturationThreshold)
		}
		if rc.SaturationThreshold == 0 {
			rc.SaturationThreshold = 0.40 // the paper's provisioning point
		}
		cfg.Routing = &rc
	}
	e := &Engine{
		cfg:          cfg,
		mig:          cfg.Migrator,
		obs:          cfg.Observer,
		flows:        append(model.Workload(nil), cfg.Base...),
		pending:      make([]float64, len(cfg.Base)),
		isPending:    make([]bool, len(cfg.Base)),
		d:            cfg.PPDC,
		lastMigEpoch: -1,
	}
	if cfg.Policy.Budget > 0 {
		e.mig = migration.Budgeted{Inner: cfg.Migrator, Budget: cfg.Policy.Budget}
	}
	e.cache = cfg.PPDC.NewWorkloadCache(e.flows)
	if cfg.Initial != nil {
		if err := cfg.Initial.Validate(cfg.PPDC, cfg.SFC); err != nil {
			return nil, fmt.Errorf("engine: initial placement: %w", err)
		}
		e.p = cfg.Initial.Clone()
	} else {
		placer := cfg.Placer
		if placer == nil {
			placer = placement.DP{}
		}
		p0, _, err := placement.Solve(context.TODO(), placer, e.cache.Problem(cfg.SFC))
		if err != nil {
			return nil, fmt.Errorf("engine: initial placement: %w", err)
		}
		e.p = p0
	}
	e.committedCost = e.cache.CommCost(e.p)
	return e, nil
}

// begin builds the router when routing is on, its loads set to loads —
// none for New, the saved pass's for resume — runs the routing pass over
// what the constructor assembled and publishes the first snapshot;
// curCost is C_a under e.p.
func (e *Engine) begin(curCost float64, loads []PricedLink) (*Engine, error) {
	if rc := e.cfg.Routing; rc != nil {
		r, err := sfcroute.NewRouter(e.d, sfcroute.Config{
			Capacity:       rc.LinkCapacity,
			Alpha:          rc.Alpha,
			MaxUtilization: rc.MaxUtilization,
			Classify:       rc.Classify,
		})
		if err != nil {
			return nil, fmt.Errorf("engine: routing: %w", err)
		}
		if err := r.SetLoads(loads); err != nil {
			return nil, fmt.Errorf("engine: state priced_from: %w", err)
		}
		e.router, e.route.sites = r, sfcroute.PlacementSites(e.p)
	}
	if err := e.routeEpoch(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e.publish(curCost)
	return e, nil
}

// MigratorName identifies the effective (policy-wrapped) migrator.
func (e *Engine) MigratorName() string { return e.mig.Name() }

// Flows returns the number of flows the engine addresses.
func (e *Engine) Flows() int { return len(e.cfg.Base) }

// IngestResult accounts for one accepted batch of rate updates. It is
// the shared response body of the daemon's single-call and bulk ingest
// endpoints, so both report the same accepted/coalesced/epoch triple.
type IngestResult struct {
	// Accepted is the number of updates that landed in the pending set.
	Accepted int `json:"accepted"`
	// Coalesced is the subset of Accepted that overwrote a pending
	// update to the same flow (last write wins) before the epoch closed.
	Coalesced int `json:"coalesced"`
	// Epoch is the epoch the batch will fold into — the one the next
	// Step completes (current completed epoch + 1).
	Epoch int `json:"epoch"`
}

// ValidateRates checks a batch of updates against the flow table without
// applying (or locking) anything. Ingest runs it implicitly; the daemon's
// write-ahead logger calls it first so a rejected batch never enters the
// log — every logged ingest is guaranteed to replay cleanly.
func (e *Engine) ValidateRates(updates []RateUpdate) error {
	for _, u := range updates {
		if u.Flow < 0 || u.Flow >= len(e.cfg.Base) {
			return fmt.Errorf("engine: flow %d out of range [0,%d)", u.Flow, len(e.cfg.Base))
		}
		if u.Rate < 0 || math.IsNaN(u.Rate) || math.IsInf(u.Rate, 0) {
			return fmt.Errorf("engine: flow %d: invalid rate %v", u.Flow, u.Rate)
		}
	}
	return nil
}

// Ingest folds a batch of rate updates into the pending set of the next
// epoch, coalescing repeated updates to one flow (last write wins), and
// returns the batch accounting. The whole batch is validated before any
// of it lands, so a bad update never half-applies a batch.
func (e *Engine) Ingest(updates []RateUpdate) (IngestResult, error) {
	if err := e.ValidateRates(updates); err != nil {
		return IngestResult{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	coalesced := 0
	for _, u := range updates {
		if e.isPending[u.Flow] {
			coalesced++
		} else {
			e.isPending[u.Flow] = true
			e.touched = append(e.touched, int32(u.Flow))
		}
		e.pending[u.Flow] = u.Rate
	}
	e.met.UpdatesAccepted += int64(len(updates))
	e.met.UpdatesCoalesced += int64(coalesced)
	e.obs.observeIngest(len(updates), coalesced)
	return IngestResult{Accepted: len(updates), Coalesced: coalesced, Epoch: e.epoch + 1}, nil
}

// Step closes the current epoch: it folds the pending updates into the
// flow table and the cost cache, evaluates the drift trigger, possibly
// consults the migrator and commits a migration, and publishes the new
// snapshot.
func (e *Engine) Step() (StepResult, error) {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()

	if e.applyPending() {
		rebuildStart := time.Now()
		e.cache.SetWorkload(e.servedWorkload())
		e.obs.observeRebuild(time.Since(rebuildStart))
	}
	// The epoch's one aggregation: the drift check below and every solver
	// of the consult read this cache, none builds its own.
	pr := e.cache.Problem(e.cfg.SFC)
	e.epoch++
	res := StepResult{Epoch: e.epoch}

	// failEpoch leaves the epoch open: nothing is committed, the pending
	// rates stay folded.
	failEpoch := func(err error) (StepResult, error) {
		e.open = true
		e.epoch--
		e.obs.observeError(e.epoch+1, err)
		return StepResult{}, fmt.Errorf("engine: epoch %d: %w", e.epoch+1, err)
	}

	curCost := e.cache.CommCost(e.p)
	if err := finiteCost("C_a", curCost); err != nil {
		return failEpoch(err)
	}
	res.TotalCost = curCost
	preCost := curCost
	drift := 1.0
	if e.committedCost > 0 {
		drift = curCost / e.committedCost
	}
	var consultTime time.Duration

	hys := e.cfg.Policy.Hysteresis
	drifted := hys <= 0 || curCost > hys*e.committedCost
	cooled := e.cfg.Policy.Cooldown <= 0 ||
		e.lastMigEpoch < 0 ||
		e.epoch-e.lastMigEpoch > e.cfg.Policy.Cooldown
	if drifted && cooled && len(pr.Workload) > 0 {
		consultStart := time.Now()
		// Consult contains a panicking solver: it surfaces as a step
		// error (event + vnfopt_engine_step_errors_total), the control
		// loop lives on.
		m, ct, err := migration.Consult(context.TODO(), e.mig, pr, e.p, e.cfg.Mu)
		consultTime = time.Since(consultStart)
		if err == nil {
			err = finiteCost("C_t", ct)
		}
		if err != nil {
			return failEpoch(err)
		}
		res.Consulted = true
		e.met.Consults++
		res.TotalCost = ct
		if moves := migration.MigrationCount(e.p, m); moves > 0 {
			res.Migrated = true
			res.Moves = moves
			res.MigCost = e.d.MigrationCost(e.p, m, e.cfg.Mu)
			e.p = m.Clone()
			curCost = e.cache.CommCost(e.p)
			e.committedCost = curCost
			e.committedEpoch = e.epoch
			e.lastMigEpoch = e.epoch
			e.met.Migrations++
			e.met.Moves += moves
		}
	}
	res.CommCost = curCost
	res.Placement = e.p.Clone()
	if err := e.routeEpoch(); err != nil {
		return failEpoch(err)
	}
	res.Routing = e.routingSummary()
	e.open = false

	e.met.Epochs = e.epoch
	e.met.LastEpoch = time.Since(start)
	e.met.TotalEpoch += e.met.LastEpoch
	if len(e.met.Trajectory) == trajectoryCap {
		e.met.Trajectory = append(e.met.Trajectory[:0], e.met.Trajectory[1:]...)
	}
	e.met.Trajectory = append(e.met.Trajectory, res.TotalCost)
	res.Elapsed = e.met.LastEpoch
	e.obs.observeStep(res, drift, consultTime, preCost-curCost)
	e.publish(curCost)
	return res, nil
}

// Settled reports whether the engine stands exactly where its last closed
// epoch or fault transition left it: nothing ingested since, and no
// failed Step holding an epoch open. Only then does State describe all of
// it — pending updates are not part of State, and the routing pass resume
// runs is the one the saved engine last ran.
func (e *Engine) Settled() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.touched) == 0 && !e.open
}

// finiteCost rejects a cost no decision can be made on — and no JSON
// encoder can carry, so it must never reach the metrics or the state.
func finiteCost(what string, c float64) error {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("non-finite %s (%v): rates overflow the cost", what, c)
	}
	return nil
}

// applyPending folds the coalesced pending updates into the flow table
// and reports whether a served flow's rate changed, i.e. whether the cost
// cache is stale. An unserved flow (dead endpoint or partitioned) records
// its rate for the eventual heal; the serving cache holds no pair for it.
// Called with e.mu held.
func (e *Engine) applyPending() (changed bool) {
	for _, i := range e.touched {
		if r := e.pending[i]; r != e.flows[i].Rate {
			e.flows[i].Rate = r
			changed = changed || e.servable == nil || e.servable[i]
		}
	}
	e.dropPending()
	return changed
}

// dropPending empties the pending set. Called with e.mu held.
func (e *Engine) dropPending() {
	for _, i := range e.touched {
		e.isPending[i] = false
	}
	e.touched = e.touched[:0]
}

// servedWorkload returns the live workload restricted to servable flows:
// e.flows itself while healthy, a filtered copy while degraded. It is what
// the cost cache is set from, and the cache keeps it (Problem().Workload).
// Called with e.mu held.
func (e *Engine) servedWorkload() model.Workload {
	if e.servable == nil {
		return e.flows
	}
	w := make(model.Workload, 0, len(e.flows))
	for i, f := range e.flows {
		if e.servable[i] {
			w = append(w, f)
		}
	}
	return w
}

// publish swaps the reader snapshot. Called with e.mu held.
func (e *Engine) publish(curCost float64) {
	e.snap.Store(&Snapshot{
		Epoch:          e.epoch,
		Placement:      e.p.Clone(),
		CommCost:       curCost,
		CommittedCost:  e.committedCost,
		CommittedEpoch: e.committedEpoch,
		Migrations:     e.met.Migrations,
		Degraded:       e.view != nil,
		ActiveFaults:   e.faults.Len(),
		UnservedFlows:  len(e.unserved),
		Routing:        e.routingSummary(),
	})
}

// Snapshot returns the last published placement view without taking the
// engine lock; safe to call concurrently with Ingest and Step.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Metrics returns a copy of the engine counters.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.met
	m.Trajectory = append([]float64(nil), e.met.Trajectory...)
	return m
}
