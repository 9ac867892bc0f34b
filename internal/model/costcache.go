package model

import (
	"math"
	"slices"

	"vnfopt/internal/graph"
)

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
// SetWorkload touches it, and a fabric change means a new cache, which
// OnFabric derives from the old one, with neither of them.
//
// A cache has one owner goroutine: SetWorkload rewrites the vectors in
// place, and UnitEndpointCosts, SwitchCosts and FabricMemo build what they
// return on first ask, so none of them may run beside any other call. The
// rule covers reads of the SwitchCosts view too, since its Row fills it.
// The engine holds its lock around every use; offline callers build their
// own cache per call. OnFabric only reads its receiver, under the same
// rule.
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
	// rate holds ingress[v] = Σ_i λ_i c(s_i, v) and egress[v] =
	// Σ_i λ_i c(v, t_i), aggregated per distinct source/dest host, at
	// switch cells v only, with the λ marginals they were summed from.
	rate endpoints
	// unit is the pair at every rate 1 (see UnitEndpointCosts), nil until
	// asked for and again once a flow's endpoints change.
	unit endpoints
	// switches is Topo.Switches cut into stretches once, for the sweeps.
	switches  graph.Stretches
	totalRate float64
	// direct is C_a of the empty placement: Σ λ c(s,t).
	direct float64
	// closure is the switch closure (see SwitchCosts), nil until asked for.
	closure *graph.Closure
	// memo is the solver's per-fabric value (see FabricMemo); nil until
	// asked for.
	memo any

	// Rebuild scratch: the pair index, made by the first regroup, and the
	// marginals' host indexes, one cell per vertex (see marginals.add).
	pairIdx        map[[2]int]int
	srcIdx, dstIdx []int32
}

// endpoints is a pair of endpoint vectors and the marginals they sum.
type endpoints struct {
	in, eg     []float64
	srcs, dsts marginals
}

// marginals lists hosts in first-appearance order with their weights.
type marginals struct {
	hosts []int
	rates []float64
}

// same reports whether m and o list the same hosts, in order, at the
// same rate bits.
func (m marginals) same(o marginals) bool {
	return slices.Equal(m.hosts, o.hosts) && slices.EqualFunc(m.rates, o.rates, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	})
}

// noParent is the empty parent of a cache built from nothing.
var noParent WorkloadCache

// NewWorkloadCache builds the aggregated cost cache for w. It is OnFabric
// with no parent: every block of every vector is summed.
func (d *PPDC) NewWorkloadCache(w Workload) *WorkloadCache {
	return d.newCache(&noParent, w)
}

// OnFabric returns the cache of w on d — bit for bit what
// d.NewWorkloadCache(w) holds — derived from c, a cache on a fabric of the
// same vertex set whose APSP matrix d's may share blocks with (a fault
// view derived from c's).
// Each vector re-sums only the blocks whose inputs changed. SwitchCosts
// and FabricMemo start empty. c is only read: a caller may drop the
// result.
func (c *WorkloadCache) OnFabric(d *PPDC, w Workload) *WorkloadCache {
	return d.newCache(c, w)
}

func (d *PPDC) newCache(p *WorkloadCache, w Workload) *WorkloadCache {
	// Start from the parent's flow list and grouping, so SetWorkload's
	// regroup-or-re-sum test decides as it would on the parent.
	n := d.Topo.Graph.Order()
	c := &WorkloadCache{
		d:        d,
		switches: graph.AppendStretches(nil, d.Topo.Switches),
		flows:    append(make(Workload, 0, len(w)), p.flows...),
		pairs:    slices.Clone(p.pairs),
		pairOf:   slices.Clone(p.pairOf),
		srcIdx:   make([]int32, n),
		dstIdx:   make([]int32, n),
	}
	c.set(w, p)
	if p.unit.in != nil {
		c.sumUnit(p)
	}
	return c
}

// SetWorkload is the invalidation hook: it discards every rate aggregate
// and rebuilds them from w. Call it whenever rates change (e.g. each hour
// of a dynamic-rates simulation); the endpoints may change too — the cache
// makes no assumption that w matches the previous workload's host pairs.
func (c *WorkloadCache) SetWorkload(w Workload) {
	c.set(w, &noParent)
}

// set is SetWorkload summing the rate vectors against the parent p's.
func (c *WorkloadCache) set(w Workload, p *WorkloadCache) {
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
	c.aggregate(&c.rate, c.pairs, false)
	if moved {
		c.unit.in, c.unit.eg = nil, nil
	}
	if len(c.rate.in) != n {
		c.rate.in, c.rate.eg = make([]float64, n), make([]float64, n)
	}
	c.sum(&c.rate, &p.rate, p)
	c.totalRate, c.direct = 0, 0
	for _, f := range c.pairs { // after the sweep built their rows as one batch
		c.totalRate += f.Rate
		c.direct += f.Rate * c.d.APSP.Row(f.Src).Cost(f.Dst)
	}
}

// group groups the non-zero flows by (src, dst) host pair in
// first-appearance order, recording each flow's pair in pairOf.
func (c *WorkloadCache) group() {
	if c.pairIdx == nil {
		c.pairIdx = make(map[[2]int]int, len(c.flows))
	}
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

// aggregate sets e's marginals — per source and per dest host, in
// first-appearance order — from flows at their rates, or at rate 1 when
// unit is set.
func (c *WorkloadCache) aggregate(e *endpoints, flows Workload, unit bool) {
	e.srcs = marginals{e.srcs.hosts[:0], e.srcs.rates[:0]}
	e.dsts = marginals{e.dsts.hosts[:0], e.dsts.rates[:0]}
	for _, f := range flows {
		if unit {
			f.Rate = 1
		}
		e.srcs.add(c.srcIdx, f.Src, f.Rate)
		e.dsts.add(c.dstIdx, f.Dst, f.Rate)
	}
}

// add adds rate to host's marginal, appending host on its first
// appearance. idx holds one cell per vertex: host is listed at idx[host]
// exactly when m.hosts has host there, so a cell left over from another
// list — or never written — reads as absent, and no reset clears idx.
func (m *marginals) add(idx []int32, host int, rate float64) {
	if i := idx[host]; int(i) < len(m.hosts) && m.hosts[i] == host {
		m.rates[i] += rate
		return
	}
	idx[host] = int32(len(m.hosts))
	m.hosts = append(m.hosts, host)
	m.rates = append(m.rates, rate)
}

// sum sets e's vectors from its marginals: each marginal's scaled row,
// added at the switch cells in marginal order. A side whose marginals are
// those of pe, the same pair of the parent p, copies the blocks the
// fabric change left alone.
func (c *WorkloadCache) sum(e, pe *endpoints, p *WorkloadCache) {
	a := c.d.APSP
	a.SumScaledCells(e.in, e.srcs.hosts, e.srcs.rates, c.switches, p.matrixIf(pe.in, e.srcs, pe.srcs), pe.in, p.switches)
	// Undirected PPDC: c(v, t) = c(t, v), so t's row serves the egress
	// sweep too.
	a.SumScaledCells(e.eg, e.dsts.hosts, e.dsts.rates, c.switches, p.matrixIf(pe.eg, e.dsts, pe.dsts), pe.eg, p.switches)
}

// matrixIf returns p's APSP matrix when p holds acc summed from the
// marginals m, nil (sum every block) otherwise.
func (p *WorkloadCache) matrixIf(acc []float64, m, pm marginals) *graph.APSP {
	if acc == nil || !m.same(pm) {
		return nil
	}
	return p.d.APSP
}

// EndpointCosts returns the aggregated per-vertex ingress/egress vectors,
// defined at switch cells; host cells are 0. The slices are owned by the
// cache and are invalidated by SetWorkload; callers must not mutate or
// retain them across rebuilds.
func (c *WorkloadCache) EndpointCosts() (ingress, egress []float64) {
	return c.rate.in, c.rate.eg
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
	if c.unit.in == nil {
		c.sumUnit(&noParent)
	}
	return c.unit.in, c.unit.eg
}

// sumUnit builds the rate-1 vectors against the parent p's.
func (c *WorkloadCache) sumUnit(p *WorkloadCache) {
	c.aggregate(&c.unit, c.flows, true)
	n := c.d.Topo.Graph.Order()
	c.unit.in, c.unit.eg = make([]float64, n), make([]float64, n)
	c.sum(&c.unit, &p.unit, p)
}

// SwitchCosts returns the metric closure over the switches, indexed like
// Topo.Switches — the input of the stroll solvers — as a view of the APSP
// matrix (graph.Closure): the first ask builds every switch row not built
// yet as one batch, and a row of the view is copied out of the matrix on
// its first read. Its Floor bounds every cost between two distinct
// switches from below. The fabric under a cache never changes, so the
// view lives as long as the cache. Owned by the cache; do not mutate.
func (c *WorkloadCache) SwitchCosts() *graph.Closure {
	if c.closure == nil {
		c.closure = c.d.APSP.Closure(c.d.Topo.Switches)
	}
	return c.closure
}

// ClosureRowsCopied returns the number of rows the SwitchCosts view has
// copied out of the matrix, 0 when nothing asked for it.
func (c *WorkloadCache) ClosureRowsCopied() int {
	if c.closure == nil {
		return 0
	}
	return c.closure.Copied()
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
	return c.totalRate*c.d.ChainCost(p) + c.rate.in[p[0]] + c.rate.eg[p[len(p)-1]]
}
