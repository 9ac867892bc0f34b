// Package vnfopt is a Go implementation of "Traffic-Optimal Virtual
// Network Function Placement and Migration in Dynamic Cloud Data Centers"
// (Tran, Sun, Tang, Pan — IPDPS 2022).
//
// A policy-preserving data center (PPDC) forces VM traffic through a
// service function chain (SFC) of VNFs installed on switches. The library
// solves the paper's two problems:
//
//   - TOP — traffic-optimal VNF placement: place the SFC's n VNFs on n
//     distinct switches minimizing the total policy-preserving
//     communication cost C_a(p) of all VM flows (Eq. 1). TOP with one flow
//     is the NP-hard n-stroll problem (Theorem 1).
//   - TOM — traffic-optimal VNF migration: as traffic rates drift, migrate
//     VNFs to minimize migration traffic plus the new communication cost,
//     C_t(p,m) = C_b(p,m) + C_a(m) (Eq. 8).
//
// The package is a facade over the internal implementation:
//
//	topo := vnfopt.MustFatTree(8, nil)                   // 128-host PPDC
//	dc := vnfopt.MustNewPPDC(topo, vnfopt.Options{})
//	rng := rand.New(rand.NewSource(1))
//	flows := vnfopt.MustGeneratePairs(topo, 100, vnfopt.DefaultIntraRack, rng)
//	sfc := vnfopt.NewSFC(5)
//	p, cost, err := vnfopt.DPPlacement().Place(dc, flows, sfc)   // Algorithm 3
//	...
//	flows2 := flows.WithRates(vnfopt.GenerateRates(len(flows), rng))
//	m, ct, err := vnfopt.MPareto().Migrate(dc, flows2, sfc, p, 1e4) // Algorithm 5
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// reproduction of every figure in the paper's evaluation.
package vnfopt

import (
	"context"
	"math/rand"

	"vnfopt/internal/engine"
	"vnfopt/internal/graph"
	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/obs"
	"vnfopt/internal/placement"
	"vnfopt/internal/routing"
	"vnfopt/internal/sim"
	"vnfopt/internal/stroll"
	"vnfopt/internal/topology"
	"vnfopt/internal/vmmig"
	"vnfopt/internal/workload"
)

// Core model types (see internal/model).
type (
	// PPDC is a policy-preserving data center: topology plus the cached
	// all-pairs cost oracle c(u,v).
	PPDC = model.PPDC
	// Options tunes model behaviour (e.g. AllowColocation, the paper's
	// future-work extension).
	Options = model.Options
	// VMPair is one communicating VM flow with traffic rate λ.
	VMPair = model.VMPair
	// Workload is the flow set P with its traffic-rate vector.
	Workload = model.Workload
	// SFC is a service function chain (f_1, ..., f_n).
	SFC = model.SFC
	// Placement maps each VNF to its hosting switch; also used for
	// migration targets m.
	Placement = model.Placement
	// WorkloadCache is the aggregated-workload fast path of the cost
	// model: O(n) C_a per candidate placement after a one-time O(l + H·|V|)
	// aggregation, with a SetWorkload invalidation hook for dynamic rates.
	// Build one with PPDC.NewWorkloadCache.
	WorkloadCache = model.WorkloadCache
)

// Topology types (see internal/topology).
type (
	// Topology is a PPDC network with its host/switch partition and rack
	// structure.
	Topology = topology.Topology
	// WeightFunc assigns link weights during topology generation.
	WeightFunc = topology.WeightFunc
	// Graph is the underlying weighted undirected graph.
	Graph = graph.Graph
)

// Algorithm interfaces.
type (
	// PlacementSolver is a TOP algorithm (Table II: DP, Optimal,
	// Steering, Greedy).
	PlacementSolver = placement.Solver
	// Migrator is a TOM algorithm (Table II: mPareto, Optimal).
	Migrator = migration.Migrator
	// VMMigrator is a VM-migration baseline (Table II: PLAN, MCF).
	VMMigrator = vmmig.VMMigrator
	// FrontierPoint is one parallel migration frontier with its
	// (C_b, C_a) coordinates — the axes of the paper's Fig. 6(b).
	FrontierPoint = migration.FrontierPoint
	// Diurnal is the paper's Eq. 9 daily traffic model.
	Diurnal = workload.Diurnal
	// BurstModel layers tenant rack bursts over the diurnal envelope —
	// the dynamic-traffic generator of the Fig. 11 experiments.
	BurstModel = workload.BurstModel
	// StrollInstance is a standalone n-stroll problem on a metric
	// closure (Theorem 1's reduction target).
	StrollInstance = stroll.Instance
	// StrollResult is a solved n-stroll.
	StrollResult = stroll.Result
)

// Workload generation constants (paper Section VI).
const (
	// DefaultIntraRack is the fraction of VM pairs placed under one edge
	// switch (80%, Benson et al.).
	DefaultIntraRack = workload.DefaultIntraRack
	// RateMax is the top of the traffic-rate range.
	RateMax = workload.RateMax
)

// FatTree builds a k-ary fat-tree PPDC (k even): k³/4 hosts, 5k²/4
// switches. weight nil means unit (hop-count) weights.
func FatTree(k int, weight WeightFunc) (*Topology, error) { return topology.FatTree(k, weight) }

// MustFatTree is FatTree but panics on an invalid arity.
func MustFatTree(k int, weight WeightFunc) *Topology { return topology.MustFatTree(k, weight) }

// Linear builds the paper's Fig. 1 linear PPDC: a switch chain with a host
// at each end.
func Linear(numSwitches int, weight WeightFunc) (*Topology, error) {
	return topology.Linear(numSwitches, weight)
}

// Ring builds a switch ring with one host per switch.
func Ring(numSwitches int, weight WeightFunc) (*Topology, error) {
	return topology.Ring(numSwitches, weight)
}

// Star builds a hub-and-leaves topology with one host per leaf switch.
func Star(numLeaves int, weight WeightFunc) (*Topology, error) {
	return topology.Star(numLeaves, weight)
}

// RandomMesh builds a connected random switch mesh with attached hosts.
func RandomMesh(numSwitches, numHosts, extraEdges int, weight WeightFunc, rng *rand.Rand) (*Topology, error) {
	return topology.RandomMesh(numSwitches, numHosts, extraEdges, weight, rng)
}

// UnitWeights returns hop-count link weights (the paper's unweighted
// PPDCs).
func UnitWeights() WeightFunc { return topology.UnitWeights() }

// UniformDelay returns link delays uniform on [mean−halfWidth,
// mean+halfWidth].
func UniformDelay(mean, halfWidth float64, rng *rand.Rand) WeightFunc {
	return topology.UniformDelay(mean, halfWidth, rng)
}

// PaperDelay returns the paper's Fig. 10 weighted-PPDC distribution
// (mean 1.5, half-width 0.5).
func PaperDelay(rng *rand.Rand) WeightFunc { return topology.PaperDelay(rng) }

// NewPPDC builds a PPDC from a topology, computing the all-pairs cost
// cache.
func NewPPDC(t *Topology, opts Options) (*PPDC, error) { return model.New(t, opts) }

// MustNewPPDC is NewPPDC but panics on error.
func MustNewPPDC(t *Topology, opts Options) *PPDC { return model.MustNew(t, opts) }

// NewSFC builds a service function chain of n generic VNFs f1..fn.
func NewSFC(n int) SFC { return model.NewSFC(n) }

// MustGeneratePairs places l VM pairs on the topology's hosts with the
// paper's rack locality and rate mix, panicking on error.
func MustGeneratePairs(t *Topology, l int, intraRack float64, rng *rand.Rand) Workload {
	return workload.MustPairs(t, l, intraRack, rng)
}

// GeneratePairsClustered places l VM pairs with tenant concentration:
// all pairs live in a random subset of tenantRacks racks (the skew that
// makes dynamic traffic move the traffic-optimal placement; see
// workload.PairsClustered).
func GeneratePairsClustered(t *Topology, l, tenantRacks int, intraRack float64, rng *rand.Rand) (Workload, error) {
	return workload.PairsClustered(t, l, tenantRacks, intraRack, rng)
}

// GenerateRates draws l traffic rates from the paper's light/medium/heavy
// mix.
func GenerateRates(l int, rng *rand.Rand) []float64 { return workload.Rates(l, rng) }

// PaperDiurnal returns the paper's Eq. 9 daily traffic model (N = 12,
// τ_min = 0.2, 3-hour coast shift).
func PaperDiurnal() Diurnal { return workload.PaperDiurnal() }

// PaperBurst returns the tenant-burst dynamic-traffic model used by the
// Fig. 11 experiments (Eq. 9 envelope × rack bursts).
func PaperBurst() BurstModel { return workload.PaperBurst() }

// DPPlacement returns the paper's Algorithm 3 (the recommended TOP
// solver).
func DPPlacement() PlacementSolver { return placement.DP{} }

// OptimalPlacement returns the paper's Algorithm 4 (exhaustive search with
// branch-and-bound; small instances only). nodeBudget 0 means unlimited.
func OptimalPlacement(nodeBudget int) PlacementSolver {
	return placement.Optimal{NodeBudget: nodeBudget, Seed: placement.DP{}}
}

// OptimalPlacementContext runs Algorithm 4 under a context: the search
// polls ctx every ~1024 node expansions and, once cancelled, returns the
// best incumbent found so far (at worst the DP seed) together with
// ctx.Err(). nodeBudget 0 means unlimited.
func OptimalPlacementContext(ctx context.Context, d *PPDC, w Workload, sfc SFC, nodeBudget int) (Placement, float64, error) {
	pr, err := d.NewProblem(w, sfc)
	if err != nil {
		return nil, 0, err
	}
	return placement.Optimal{NodeBudget: nodeBudget, Seed: placement.DP{}}.PlaceProblem(ctx, pr)
}

// SteeringPlacement returns the Steering [55] comparison baseline.
func SteeringPlacement() PlacementSolver { return placement.Steering{} }

// GreedyPlacement returns the Greedy [34] comparison baseline.
func GreedyPlacement() PlacementSolver { return placement.Greedy{} }

// AnnealPlacement returns a simulated-annealing TOP solver seeded by the
// DP (extension; never worse than DP, deterministic for a fixed seed).
// iterations 0 uses the default budget.
func AnnealPlacement(iterations int, seed int64) PlacementSolver {
	return placement.Anneal{Iterations: iterations, Seed: seed}
}

// Top1DP solves TOP-1 (one flow) with Algorithm 2's DP-Stroll.
func Top1DP(d *PPDC, f VMPair, n int) (Placement, float64, error) {
	return placement.Top1DP(d, f, n)
}

// Top1Optimal solves TOP-1 exactly (within nodeBudget expansions;
// 0 = unlimited); the bool reports proven optimality.
func Top1Optimal(d *PPDC, f VMPair, n, nodeBudget int) (Placement, float64, bool, error) {
	return placement.Top1Optimal(d, f, n, nodeBudget)
}

// Top1PrimalDual solves TOP-1 with the primal-dual Algorithm 1.
func Top1PrimalDual(d *PPDC, f VMPair, n int) (Placement, float64, error) {
	return placement.Top1PrimalDual(d, f, n)
}

// MPareto returns the paper's Algorithm 5 (the recommended TOM solver).
func MPareto() Migrator { return migration.MPareto{} }

// OptimalMigration returns the paper's Algorithm 6 (exhaustive; small
// instances only). nodeBudget 0 means unlimited.
func OptimalMigration(nodeBudget int) Migrator {
	return migration.Exhaustive{NodeBudget: nodeBudget, Seed: migration.MPareto{}}
}

// OptimalMigrationContext runs Algorithm 6 under a context: the search
// polls ctx every ~1024 node expansions and, once cancelled, returns the
// best incumbent found so far (at worst the mPareto seed or staying put)
// together with ctx.Err(). nodeBudget 0 means unlimited.
func OptimalMigrationContext(ctx context.Context, d *PPDC, w Workload, sfc SFC, p Placement, mu float64, nodeBudget int) (Placement, float64, error) {
	pr, err := d.NewProblem(w, sfc)
	if err != nil {
		return nil, 0, err
	}
	return migration.Exhaustive{NodeBudget: nodeBudget, Seed: migration.MPareto{}}.MigrateProblem(ctx, pr, p, mu)
}

// NoMigration returns the keep-everything-in-place reference.
func NoMigration() Migrator { return migration.NoMigration{} }

// ParallelFrontiers enumerates the parallel migration frontiers between
// two placements with their (C_b, C_a) coordinates (Fig. 6(b)).
func ParallelFrontiers(d *PPDC, w Workload, sfc SFC, p, pNew Placement, mu float64) []FrontierPoint {
	return migration.ParallelFrontiers(d, w, sfc, p, pNew, mu)
}

// IsParetoFront reports whether a frontier sweep is a Pareto front
// (Fig. 6(b)'s observation).
func IsParetoFront(points []FrontierPoint) bool { return migration.IsParetoFront(points) }

// IsConvexFront reports Theorem 5's sufficient optimality condition.
func IsConvexFront(points []FrontierPoint) bool { return migration.IsConvexFront(points) }

// MigrationCount counts VNFs that move between two placements
// (Fig. 11(b)).
func MigrationCount(p, m Placement) int { return migration.MigrationCount(p, m) }

// PLANBaseline returns the PLAN [17] VM-migration baseline. hostCapacity 0
// means uncapacitated.
func PLANBaseline(hostCapacity int) VMMigrator {
	return vmmig.PLAN{Opts: vmmig.Options{HostCapacity: hostCapacity}}
}

// MCFBaseline returns the MCF [24] min-cost-flow VM-migration baseline.
// hostCapacity 0 means uncapacitated.
func MCFBaseline(hostCapacity int) VMMigrator {
	return vmmig.MCF{Opts: vmmig.Options{HostCapacity: hostCapacity}}
}

// SolveStrollDP solves a standalone n-stroll instance with Algorithm 2.
func SolveStrollDP(in StrollInstance) (StrollResult, error) { return stroll.DP(in) }

// SolveStrollOptimal solves a standalone n-stroll exactly (nodeBudget 0 =
// unlimited).
func SolveStrollOptimal(in StrollInstance, nodeBudget int) (StrollResult, error) {
	return stroll.Exhaustive(in, stroll.ExhaustiveOptions{NodeBudget: nodeBudget})
}

// SolveStrollOptimalContext is SolveStrollOptimal under a context: once
// cancelled the best incumbent (at worst the DP seed) is returned with
// Optimal=false alongside ctx.Err().
func SolveStrollOptimalContext(ctx context.Context, in StrollInstance, nodeBudget int) (StrollResult, error) {
	return stroll.ExhaustiveContext(ctx, in, stroll.ExhaustiveOptions{NodeBudget: nodeBudget})
}

// SolveStrollPrimalDual solves a standalone n-stroll with Algorithm 1.
func SolveStrollPrimalDual(in StrollInstance) (StrollResult, error) {
	return stroll.PrimalDual(in)
}

// --- Routing / link loads -------------------------------------------------

// Link is an undirected network link key (U < V).
type Link = routing.Link

// LinkReport summarizes a link-load distribution.
type LinkReport = routing.Report

// FlowRoute materializes one flow's policy-preserving path
// (src → f_1 → … → f_n → dst) as a vertex walk.
func FlowRoute(d *PPDC, f VMPair, p Placement) []int { return routing.FlowRoute(d, f, p) }

// LinkLoads accumulates per-link traffic for a workload under a placement.
func LinkLoads(d *PPDC, w Workload, p Placement) (map[Link]float64, error) {
	return routing.LinkLoads(d, w, p)
}

// SummarizeLinkLoads reports max/mean/P99 link loads.
func SummarizeLinkLoads(loads map[Link]float64) LinkReport { return routing.Summarize(loads) }

// LinkUtilization reports the peak utilization and the number of links
// above a threshold (the paper assumes links provisioned around 40%).
func LinkUtilization(loads map[Link]float64, capacity, threshold float64) (maxUtil float64, above int, err error) {
	return routing.Utilization(loads, capacity, threshold)
}

// --- Dynamic-traffic simulation --------------------------------------------

// SimConfig describes a dynamic-PPDC simulation scenario (see
// internal/sim).
type SimConfig = sim.Config

// Simulator drives an hourly rate schedule through a PPDC, letting TOM
// migrators, VM baselines, or nothing react, and records costs, moves, and
// optionally link loads.
type Simulator = sim.Simulator

// SimTrace is one strategy's recorded run.
type SimTrace = sim.Trace

// NewSimulator validates a scenario and computes the initial TOP
// placement.
func NewSimulator(cfg SimConfig) (*Simulator, error) { return sim.New(cfg) }

// --- Online placement engine -----------------------------------------------

// Engine is the long-running online counterpart of the batch simulator: it
// owns a PPDC plus a live workload, ingests streaming per-pair rate
// updates, keeps C_a current, and runs a drift-triggered TOM
// loop (see internal/engine and docs/ENGINE.md).
type Engine = engine.Engine

// EngineConfig describes an engine scenario.
type EngineConfig = engine.Config

// EnginePolicy tunes the TOM control loop: hysteresis drift trigger,
// migration cooldown, and per-epoch move budget.
type EnginePolicy = engine.Policy

// RateUpdate is one streaming per-flow rate observation.
type RateUpdate = engine.RateUpdate

// EngineSnapshot is the engine's lock-free read model.
type EngineSnapshot = engine.Snapshot

// EngineStepResult reports one epoch of the control loop.
type EngineStepResult = engine.StepResult

// NewEngine validates a scenario and returns a running engine.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// RoutingConfig enables the engine's per-epoch capacity-aware SFC
// routing pass (set EngineConfig.Routing): link capacity, congestion
// pricing exponent, admission utilization target, and max-flow
// rejection classification.
type RoutingConfig = engine.RoutingConfig

// RoutingReport is the full per-epoch admission/utilization report
// (Engine.RoutingReport): per-flow decisions, per-link loads, and the
// saturated-link set.
type RoutingReport = engine.RoutingReport

// RoutingSummary is the compact admission summary published on
// EngineSnapshot.Routing and EngineStepResult.Routing.
type RoutingSummary = engine.RoutingSummary

// FlowDecision is one flow's admission outcome within a RoutingReport.
type FlowDecision = engine.FlowDecision

// --- Observability ---------------------------------------------------------

// MetricsRegistry is a concurrency-safe get-or-create metrics registry
// (counters, gauges, lock-free streaming histograms) with Prometheus
// text exposition via WritePrometheus. A nil registry hands out nil
// handles whose methods all no-op, so instrumentation can stay wired in
// permanently and be disabled for free.
type MetricsRegistry = obs.Registry

// EventLog is a bounded ring buffer of structured events (migrations,
// step errors) with monotonic sequence numbers.
type EventLog = obs.EventLog

// Event is one EventLog entry.
type Event = obs.Event

// EngineObserver is the engine's observability sink: pre-resolved
// metric handles plus an optional event log, built by NewObserver.
type EngineObserver = engine.Observer

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEventLog returns a bounded event ring (capacity <= 0 selects the
// default of 256 events).
func NewEventLog(capacity int) *EventLog { return obs.NewEventLog(capacity) }

// NewObserver resolves the engine metric family against r, labelling
// every series with the scenario name when non-empty. Attach the result
// as EngineConfig.Observer (or SimConfig.Observer). Either argument may
// be nil.
func NewObserver(r *MetricsRegistry, events *EventLog, scenario string) *EngineObserver {
	return engine.NewObserver(r, events, scenario)
}

// InstrumentedPlacement wraps a TOP solver so every Place call is timed
// and counted under vnfopt_solver_*{solver="<name>"} in r.
func InstrumentedPlacement(s PlacementSolver, r *MetricsRegistry) PlacementSolver {
	return obs.InstrumentedSolver{Inner: s, M: obs.NewSolverMetrics(r, s.Name())}
}

// InstrumentedMigration wraps a TOM migrator so every Migrate call is
// timed and counted under vnfopt_migrator_*{migrator="<name>"} in r.
func InstrumentedMigration(m Migrator, r *MetricsRegistry) Migrator {
	return obs.InstrumentedMigrator{Inner: m, M: obs.NewMigratorMetrics(r, m.Name())}
}

// --- Migration policies (extensions) --------------------------------------

// TriggeredMigration wraps a migrator with a hysteresis trigger: accept a
// proposed move only when the communication saving is at least hysteresis
// times the migration cost.
func TriggeredMigration(inner Migrator, hysteresis float64) Migrator {
	return migration.Triggered{Inner: inner, Hysteresis: hysteresis}
}

// PeriodicMigration wraps a migrator to act only every interval-th call.
func PeriodicMigration(inner Migrator, interval int) Migrator {
	return &migration.Periodic{Inner: inner, Interval: interval}
}

// --- Extra topologies ------------------------------------------------------

// LeafSpine builds a two-tier Clos fabric (every leaf connects to every
// spine; hostsPerLeaf hosts per leaf).
func LeafSpine(leaves, spines, hostsPerLeaf int, weight WeightFunc) (*Topology, error) {
	return topology.LeafSpine(leaves, spines, hostsPerLeaf, weight)
}

// Jellyfish builds a random-regular-graph fabric (Singla et al.) with
// hostsPerSwitch hosts on every switch.
func Jellyfish(numSwitches, switchDegree, hostsPerSwitch int, weight WeightFunc, rng *rand.Rand) (*Topology, error) {
	return topology.Jellyfish(numSwitches, switchDegree, hostsPerSwitch, weight, rng)
}
