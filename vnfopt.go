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
// The facade holds what the programs under cmd/ and examples/ call and
// nothing else (facade_reach_test.go): a name no program uses is reached
// through its internal package instead.
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// reproduction of every figure in the paper's evaluation.
package vnfopt

import (
	"math/rand"

	"vnfopt/internal/engine"
	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/sfcroute"
	"vnfopt/internal/sim"
	"vnfopt/internal/stroll"
	"vnfopt/internal/topology"
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
)

// Topology types (see internal/topology).
type (
	// Topology is a PPDC network with its host/switch partition and rack
	// structure.
	Topology = topology.Topology
	// WeightFunc assigns link weights during topology generation.
	WeightFunc = topology.WeightFunc
)

// Algorithm interfaces.
type (
	// PlacementSolver is a TOP algorithm (Table II: DP, Optimal,
	// Steering, Greedy).
	PlacementSolver = placement.Solver
	// Migrator is a TOM algorithm (Table II: mPareto, Optimal).
	Migrator = migration.Migrator
	// FrontierPoint is one parallel migration frontier with its
	// (C_b, C_a) coordinates — the axes of the paper's Fig. 6(b).
	FrontierPoint = migration.FrontierPoint
	// BurstModel layers tenant rack bursts over the diurnal envelope —
	// the dynamic-traffic generator of the Fig. 11 experiments.
	BurstModel = workload.BurstModel
	// StrollInstance is a standalone n-stroll problem on a metric
	// closure (Theorem 1's reduction target).
	StrollInstance = stroll.Instance
	// StrollResult is a solved n-stroll.
	StrollResult = stroll.Result
)

// DefaultIntraRack is the fraction of VM pairs placed under one edge
// switch (80%, Benson et al.; paper Section VI).
const DefaultIntraRack = workload.DefaultIntraRack

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

// PaperDelay returns the paper's Fig. 10 weighted-PPDC distribution
// (mean 1.5, half-width 0.5).
func PaperDelay(rng *rand.Rand) WeightFunc { return topology.PaperDelay(rng) }

// MustNewPPDC builds a PPDC from a topology, computing the all-pairs cost
// cache; it panics on a topology the model rejects.
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

// SteeringPlacement returns the Steering [55] comparison baseline.
func SteeringPlacement() PlacementSolver { return placement.Steering{} }

// GreedyPlacement returns the Greedy [34] comparison baseline.
func GreedyPlacement() PlacementSolver { return placement.Greedy{} }

// MPareto returns the paper's Algorithm 5 (the recommended TOM solver).
func MPareto() Migrator { return migration.MPareto{} }

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

// SolveStrollDP solves a standalone n-stroll instance with Algorithm 2.
func SolveStrollDP(in StrollInstance) (StrollResult, error) { return stroll.DP(in) }

// SolveStrollOptimal solves a standalone n-stroll exactly (nodeBudget 0 =
// unlimited).
func SolveStrollOptimal(in StrollInstance, nodeBudget int) (StrollResult, error) {
	return stroll.Exhaustive(in, nodeBudget)
}

// SolveStrollPrimalDual solves a standalone n-stroll with Algorithm 1.
func SolveStrollPrimalDual(in StrollInstance) (StrollResult, error) {
	return stroll.PrimalDual(in)
}

// --- Routing / link loads -------------------------------------------------

// Link is an undirected network link key (U < V).
type Link = sfcroute.Link

// LinkLoads accumulates per-link traffic for a workload under a placement.
func LinkLoads(d *PPDC, w Workload, p Placement) (map[Link]float64, error) {
	return sim.LinkLoads(d, w, p)
}

// --- Dynamic-traffic simulation --------------------------------------------

// SimConfig describes a dynamic-PPDC simulation scenario (see
// internal/sim).
type SimConfig = sim.Config

// Simulator drives an hourly rate schedule through a PPDC, letting TOM
// migrators, VM baselines, or nothing react, and records costs, moves, and
// optionally link loads.
type Simulator = sim.Simulator

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

// NewEngine validates a scenario and returns a running engine.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// RoutingConfig enables the engine's per-epoch capacity-aware SFC
// routing pass (set EngineConfig.Routing): link capacity, congestion
// pricing exponent, admission utilization target, and max-flow
// rejection classification.
type RoutingConfig = engine.RoutingConfig
