package model

import "vnfopt/internal/graph"

// WorkloadCache is the aggregated-workload fast path of the cost model.
// The scalar oracles (CommCost, EndpointCosts) re-scan all l flows per
// query; at data-center scale l dwarfs the number of distinct hosts, so
// the cache collapses the workload once:
//
//   - VM pairs are grouped by (source host, dest host) with λ summed, so
//     the no-SFC direct cost is Σ over distinct pairs instead of flows;
//   - per-host λ marginals (by source, by dest) feed the traffic-weighted
//     per-switch ingress/egress vectors
//     ingress[v] = Σ_s λ(s)·c(s,v), egress[v] = Σ_t λ(t)·c(v,t),
//     built in O(H·|V_s|) instead of EndpointCosts' O(l·|V|). They are
//     defined at switch cells only — a placement lives on switches, so
//     nothing reads a host cell — and their host cells are 0.
//
// After the one-time build, CommCost(p) is
// Λ·chain(p) + ingress[p(1)] + egress[p(n)] — O(n) per candidate
// placement with no dependence on l. Solvers evaluating thousands of
// candidates (DP pruning sweeps, annealing, layered DP, frontier scans)
// query the cache; the scalar oracles remain the differential reference
// (equivalence is fuzz-tested to float-reassociation tolerance).
//
// All aggregation runs in first-appearance order of the workload slice,
// so the cache is a function of (fabric, workload): identical workloads
// produce bit-identical vectors regardless of map iteration order or of
// what the cache held before.
//
// The cache snapshots the workload. When rates move — the TOM
// dynamic-rates path mutates λ every simulated hour, the online engine
// (internal/engine) folds streamed updates every epoch — call SetWorkload
// with the updated workload: it is the one way the cache changes, an
// O(l + H·|V_s|) rebuild that allocates nothing in steady state. It
// regroups the flows only when an endpoint or the set of zero-rate flows
// changed; rate churn alone re-sums the pairs it already has.
//
// What depends on the fabric alone — SwitchCosts and the solver slot
// FabricMemo — is built on first ask and lives as long as the cache: no
// SetWorkload touches it, and a fabric change means a new cache.
//
// A cache has one owner goroutine: SetWorkload rewrites the vectors in
// place, and UnitEndpointCosts, SwitchCosts and FabricMemo build what they
// return on first ask, so none of them may run beside any other call. The
// engine holds its lock around every use; offline callers build their own
// cache per call.
type WorkloadCache struct {
	d *PPDC
	// flows is the workload the cache was last set from, flow by flow
	// (zero-rate flows included): with d it is everything the aggregates
	// are a function of, and what Problem hands to the solvers.
	flows Workload
	// pairs is the (src,dst)-aggregated workload; its Rate fields hold the
	// summed λ of all flows sharing that host pair.
	pairs Workload
	// pairOf[i] is flow i's index in pairs, −1 for a zero-rate flow.
	pairOf []int32
	// ingress[v] = Σ_i λ_i c(s_i, v); egress[v] = Σ_i λ_i c(v, t_i),
	// aggregated per distinct source/dest host, at switch cells v only.
	ingress, egress []float64
	// switches is Topo.Switches cut into stretches once, for the sweeps.
	switches  graph.Stretches
	totalRate float64
	// direct is C_a of the empty placement: Σ λ c(s,t).
	direct float64
	// unitIn/unitEg are the endpoint vectors of flows with every rate
	// set to 1 (see UnitEndpointCosts); nil until asked for, and again
	// once a flow's endpoints change.
	unitIn, unitEg []float64
	// switchCosts is the dense closure over the switches (see
	// SwitchCosts); nil until asked for.
	switchCosts [][]float64
	// memo is the solver's per-fabric value (see FabricMemo); nil until
	// asked for.
	memo any

	// Rebuild scratch, cleared and refilled by every SetWorkload: the
	// (src,dst) → pairs index and the per-host λ marginals with their
	// host → index maps (UnitEndpointCosts refills the marginals with
	// flow counts).
	pairIdx        map[[2]int]int
	srcIdx, dstIdx map[int]int
	srcs, dsts     []hostRate
}

// hostRate is one host's λ marginal.
type hostRate struct {
	host int
	rate float64
}

// NewWorkloadCache builds the aggregated cost cache for w.
func (d *PPDC) NewWorkloadCache(w Workload) *WorkloadCache {
	c := &WorkloadCache{
		d:        d,
		switches: graph.AppendStretches(nil, d.Topo.Switches),
		flows:    make(Workload, 0, len(w)),
		pairIdx:  make(map[[2]int]int, len(w)),
		srcIdx:   make(map[int]int),
		dstIdx:   make(map[int]int),
	}
	c.SetWorkload(w)
	return c
}

// SetWorkload is the invalidation hook: it discards every rate aggregate
// and rebuilds them from w. Call it whenever rates change (e.g. each hour
// of a dynamic-rates simulation); the endpoints may change too — the cache
// makes no assumption that w matches the previous workload's host pairs.
func (c *WorkloadCache) SetWorkload(w Workload) {
	n := c.d.Topo.Graph.Order()
	// Keep the flow list. The unit-rate vectors depend on the endpoints
	// only: they survive a walk that finds none moved. The grouping also
	// depends on which flows are zero — pair order is first appearance
	// among non-zero flows — so it survives only if that pattern holds too.
	kept := c.flows
	moved := len(w) != len(kept)
	regroup := moved
	c.flows = c.flows[:0]
	for i, f := range w {
		if !moved {
			moved = f.Src != kept[i].Src || f.Dst != kept[i].Dst
			regroup = regroup || moved || (f.Rate == 0) != (kept[i].Rate == 0)
		}
		c.flows = append(c.flows, f) // overwrites kept[i], already compared
	}
	if regroup {
		c.group()
	} else {
		// Same pairs in the same order: re-sum them flow by flow. A pair's
		// first flow is non-zero, and 0 + r is r, so every sum has the
		// bits the regroup would give it.
		for i := range c.pairs {
			c.pairs[i].Rate = 0
		}
		for i, j := range c.pairOf {
			if j >= 0 {
				c.pairs[j].Rate += c.flows[i].Rate
			}
		}
	}
	// Per-host λ marginals, first-appearance order.
	c.resetMarginals()
	c.totalRate, c.direct = 0, 0
	for _, f := range c.pairs {
		c.totalRate += f.Rate
		c.direct += f.Rate * c.d.APSP.Cost(f.Src, f.Dst)
		c.addMarginals(f, f.Rate)
	}
	if moved {
		c.unitIn, c.unitEg = nil, nil
	}
	if len(c.ingress) != n {
		c.ingress = make([]float64, n)
		c.egress = make([]float64, n)
	} else {
		clear(c.ingress)
		clear(c.egress)
	}
	c.sweep(c.ingress, c.egress)
}

// group groups the non-zero flows by (src, dst) host pair in
// first-appearance order, recording each flow's pair in pairOf.
func (c *WorkloadCache) group() {
	clear(c.pairIdx)
	c.pairs, c.pairOf = c.pairs[:0], c.pairOf[:0]
	for _, f := range c.flows {
		if f.Rate == 0 {
			c.pairOf = append(c.pairOf, -1)
			continue
		}
		key := [2]int{f.Src, f.Dst}
		j, ok := c.pairIdx[key]
		if ok {
			c.pairs[j].Rate += f.Rate
		} else {
			j = len(c.pairs)
			c.pairIdx[key] = j
			c.pairs = append(c.pairs, f)
		}
		c.pairOf = append(c.pairOf, int32(j))
	}
}

func (c *WorkloadCache) resetMarginals() {
	clear(c.srcIdx)
	clear(c.dstIdx)
	c.srcs, c.dsts = c.srcs[:0], c.dsts[:0]
}

// addMarginals adds rate to the marginals of f's source and dest hosts,
// appending a host on its first appearance.
func (c *WorkloadCache) addMarginals(f VMPair, rate float64) {
	if i, ok := c.srcIdx[f.Src]; ok {
		c.srcs[i].rate += rate
	} else {
		c.srcIdx[f.Src] = len(c.srcs)
		c.srcs = append(c.srcs, hostRate{f.Src, rate})
	}
	if i, ok := c.dstIdx[f.Dst]; ok {
		c.dsts[i].rate += rate
	} else {
		c.dstIdx[f.Dst] = len(c.dsts)
		c.dsts = append(c.dsts, hostRate{f.Dst, rate})
	}
}

// sweep adds each marginal's scaled row into in (sources) and eg (dests)
// at the switch cells, in marginal order.
func (c *WorkloadCache) sweep(in, eg []float64) {
	for _, s := range c.srcs {
		c.d.APSP.AddScaledCells(in, s.host, s.rate, c.switches)
	}
	for _, t := range c.dsts {
		// Undirected PPDC: c(v, t) = c(t, v), so t's row serves the egress
		// sweep too.
		c.d.APSP.AddScaledCells(eg, t.host, t.rate, c.switches)
	}
}

// EndpointCosts returns the aggregated per-vertex ingress/egress vectors,
// defined at switch cells; host cells are 0. The slices are owned by the
// cache and are invalidated by SetWorkload; callers must not mutate or
// retain them across rebuilds.
func (c *WorkloadCache) EndpointCosts() (ingress, egress []float64) {
	return c.ingress, c.egress
}

// UnitEndpointCosts returns the endpoint vectors of the cached workload
// with every flow's rate taken as 1 — zero-rate flows count — which is
// what the rate-oblivious baselines (placement.Steering, Greedy) score
// by: unitIn[v] = Σ_i c(s_i, v), unitEg[v] = Σ_i c(v, t_i), defined at
// switch cells; host cells are 0. They are the EndpointCosts of a cache
// built on that rate-1 workload, bit for bit: each host's flow count is
// its rate-1 marginal, an exact integer, and the counts are swept in the
// same first-appearance order. Built on first ask and kept
// until SetWorkload sees a flow's endpoints differ from the kept list,
// so rate churn alone never recomputes them. Owned by the cache like
// EndpointCosts; do not mutate.
func (c *WorkloadCache) UnitEndpointCosts() (ingress, egress []float64) {
	if c.unitIn == nil {
		c.resetMarginals()
		for _, f := range c.flows {
			c.addMarginals(f, 1)
		}
		n := c.d.Topo.Graph.Order()
		c.unitIn, c.unitEg = make([]float64, n), make([]float64, n)
		c.sweep(c.unitIn, c.unitEg)
	}
	return c.unitIn, c.unitEg
}

// SwitchCosts returns the dense |V_s|×|V_s| shortest-path cost matrix
// over the switches, indexed like Topo.Switches — the metric closure the
// stroll solvers take as input. The fabric under a cache never changes,
// so it is built on first ask and kept for the cache's life. Owned by the
// cache; do not mutate.
func (c *WorkloadCache) SwitchCosts() [][]float64 {
	if c.switchCosts == nil {
		c.switchCosts = c.d.APSP.CostMatrix(c.d.Topo.Switches)
	}
	return c.switchCosts
}

// FabricMemo returns the solver-owned value kept for the cache's life
// beside SwitchCosts, calling build for it on first ask. Like SwitchCosts
// it may depend on the fabric only, never on rates: placement.DP keeps its
// Algorithm-2 tables here, one per egress switch, so every epoch on one
// fabric shares them. The cache never looks inside it.
func (c *WorkloadCache) FabricMemo(build func() any) any {
	if c.memo == nil {
		c.memo = build()
	}
	return c.memo
}

// TotalRate returns Λ = Σ λ_i.
func (c *WorkloadCache) TotalRate() float64 { return c.totalRate }

// CommCost returns C_a(p) (Eq. 1) in O(len(p)) — equivalent to the scalar
// PPDC.CommCost up to float reassociation.
func (c *WorkloadCache) CommCost(p Placement) float64 {
	if len(p) == 0 {
		return c.direct
	}
	return c.totalRate*c.d.ChainCost(p) + c.ingress[p[0]] + c.egress[p[len(p)-1]]
}

// TotalCost returns C_t(p, m) = C_b(p, m) + C_a(m) (Eq. 8) using the
// cached C_a.
func (c *WorkloadCache) TotalCost(p, m Placement, mu float64) float64 {
	return c.d.MigrationCost(p, m, mu) + c.CommCost(m)
}
