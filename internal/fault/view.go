package fault

import (
	"fmt"
	"math"
	"sort"

	"vnfopt/internal/graph"
	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

// View is an immutable degraded snapshot of a pristine PPDC under one
// FaultSet: its APSP oracle, over the degraded fabric, the live
// host/switch membership, and the connected-component labelling used
// for reachability and partition detection. ApplyDelta's fabric weighs
// the pristine CSR's arcs anew, +Inf where they are down, over the
// pristine Topo.Graph; Rebuild's, the oracle's, is a filtered clone.
type View struct {
	pristine *model.PPDC
	faults   FaultSet
	degraded *model.PPDC // == pristine when faults is empty
	dead     []bool      // per-vertex: switch/host explicitly failed
	comp     []int       // per-vertex component label; -1 for dead vertices
	ncomp    int
}

// Apply builds the degraded view of d under fs over a fresh APSP matrix.
// It is the oracle the tests, the fuzz targets and the chaos harness
// hold ApplyDelta — the one path production code takes — against. An
// empty fault set short-circuits to the pristine model itself (no
// rebuild); Rebuild is the always-reconstruct variant the round-trip
// fuzz uses to prove the reconstruction path is bit-identical.
func Apply(d *model.PPDC, fs FaultSet) (*View, error) {
	if err := fs.Validate(d); err != nil {
		return nil, err
	}
	if fs.Empty() {
		v := &View{pristine: d, faults: fs, degraded: d}
		v.label(d.APSP.Fabric())
		return v, nil
	}
	return Rebuild(d, fs), nil
}

// linkSet is a small sorted set of undirected links, each stored with
// endpoints ordered u ≤ v. Fault sets are tiny (typically 1–3 elements),
// so a sorted slice with a linear probe beats a map on the hot inject
// path: no hashing, no per-event map allocation, and the filter predicate
// runs once per pristine edge endpoint.
type linkSet [][2]int

// has reports whether the (unordered) link {u, w} is in the set.
func (ls linkSet) has(u, w int) bool {
	if u > w {
		u, w = w, u
	}
	for _, l := range ls {
		if l[0] == u && l[1] == w {
			return true
		}
		if l[0] > u {
			break
		}
	}
	return false
}

// degradeEntry records one soft-failed link (u ≤ v) with its weight
// factor; degradeSet shares linkSet's sorted-slice rationale.
type degradeEntry struct {
	u, v   int
	factor float64
}

type degradeSet []degradeEntry

// factor returns the weight multiplier of the (unordered) link {u, w};
// 1 when the link is not degraded.
func (ds degradeSet) factor(u, w int) float64 {
	if u > w {
		u, w = w, u
	}
	for _, d := range ds {
		if d.u == u && d.v == w {
			return d.factor
		}
		if d.u > u {
			break
		}
	}
	return 1
}

// filter expands the fault set into its per-vertex dead mask, downed
// link set, and degraded link factors for an n-vertex fabric.
func (fs FaultSet) filter(n int) (dead []bool, down linkSet, degr degradeSet) {
	dead = make([]bool, n)
	for f := range fs.set {
		switch f.Kind {
		case Switch, Host:
			dead[f.U] = true
		case Link:
			down = append(down, [2]int{f.U, f.V})
		case Degrade:
			degr = append(degr, degradeEntry{u: f.U, v: f.V, factor: f.Factor})
		}
	}
	sort.Slice(down, func(i, j int) bool {
		if down[i][0] != down[j][0] {
			return down[i][0] < down[j][0]
		}
		return down[i][1] < down[j][1]
	})
	sort.Slice(degr, func(i, j int) bool {
		if degr[i].u != degr[j].u {
			return degr[i].u < degr[j].u
		}
		return degr[i].v < degr[j].v
	})
	return dead, down, degr
}

// keep reports whether the pristine edge {u, w} survives the fault set
// expanded into (dead, down).
func keepEdge(dead []bool, down linkSet, u, w int) bool {
	if dead != nil && (dead[u] || dead[w]) {
		return false
	}
	return !down.has(u, w)
}

// effWeight returns the cost a surviving pristine edge {u, w} of weight
// wt carries under the degrade factors. Rebuild's degradedClone and
// ApplyDelta's view weights evaluate exactly this expression, finite by
// Validate, so the incremental path's weights are bit-identical to the
// full rebuild's. A factor of 1 (no degrade) returns wt itself — no
// float operation that could perturb an undegraded edge.
func effWeight(degr degradeSet, u, w int, wt float64) float64 {
	if f := degr.factor(u, w); f != 1 {
		return wt * f
	}
	return wt
}

// degradedClone builds the filtered, re-weighted graph of a fault set
// expanded into (dead, down, degr), preserving pristine adjacency order.
func degradedClone(pg *graph.Graph, dead []bool, down linkSet, degr degradeSet) *graph.Graph {
	return pg.CloneMapped(func(u, w int, wt float64) (float64, bool) {
		if !keepEdge(dead, down, u, w) {
			return 0, false
		}
		return effWeight(degr, u, w, wt), true
	})
}

// buildView assembles the degraded view's topology and labelling around
// g, its graph, and apsp, its cost oracle over the degraded fabric.
func buildView(v *View, d *model.PPDC, g *graph.Graph, apsp *graph.APSP) *View {
	t := &topology.Topology{
		Name:   d.Topo.Name + "+faults",
		Graph:  g,
		Kind:   d.Topo.Kind,
		Labels: d.Topo.Labels,
	}
	for _, h := range d.Topo.Hosts {
		if !v.dead[h] {
			t.Hosts = append(t.Hosts, h)
		}
	}
	for _, s := range d.Topo.Switches {
		if !v.dead[s] {
			t.Switches = append(t.Switches, s)
		}
	}
	for _, rack := range d.Topo.Racks {
		live := make([]int, 0, len(rack))
		for _, h := range rack {
			if !v.dead[h] {
				live = append(live, h)
			}
		}
		t.Racks = append(t.Racks, live)
	}
	// The degraded topology deliberately fails Topology.Validate (it may
	// be disconnected and the membership lists exclude dead vertices), so
	// the PPDC is assembled directly rather than through model.New.
	v.degraded = &model.PPDC{Topo: t, APSP: apsp, Opts: d.Opts}
	v.label(apsp.Fabric())
	return v
}

// Rebuild constructs the degraded view without the empty-set shortcut.
// The fault set must already be valid for d. Reconstruction is
// deterministic: the degraded graph preserves the pristine adjacency
// order of every surviving edge, and the APSP build is the bit-stable
// parallel kernel, so Rebuild(d, empty) reproduces d's APSP matrix
// bit-for-bit.
func Rebuild(d *model.PPDC, fs FaultSet) *View {
	n := d.Topo.Graph.Order()
	v := &View{pristine: d, faults: fs}
	var down linkSet
	var degr degradeSet
	v.dead, down, degr = fs.filter(n)
	g := degradedClone(d.Topo.Graph, v.dead, down, degr)
	return buildView(v, d, g, graph.AllPairs(g))
}

// ApplyDelta is Apply with an incremental APSP update: the view's fabric
// is the pristine CSR under a new weight vector, and its matrix is prev's
// re-weighed to it (graph.APSP.Reweigh), which repairs every row where
// the fault transition moves it and carries a row it does not move over
// verbatim. The result is bit-identical to Apply — the differential fuzz
// target FuzzIncrementalAPSP pins this over random inject/heal sequences
// — at a fraction of the cost for the typical 1–3 element transition. A
// prev whose matrix is not over d's fabric — nil, a view of another
// model, or Rebuild's, over a clone — re-weighs the pristine matrix
// itself; an empty fault set short-circuits to the pristine model.
func ApplyDelta(d *model.PPDC, prev *View, fs FaultSet) (*View, error) {
	if err := fs.Validate(d); err != nil {
		return nil, err
	}
	if fs.Empty() {
		v := &View{pristine: d, faults: fs, degraded: d}
		v.label(d.APSP.Fabric())
		return v, nil
	}
	base := d.APSP
	// ApplyDelta's views, and the empty set's, keep d's graph over a
	// weight vector of d's fabric; Rebuild's keep a clone.
	if prev != nil && prev.pristine == d && prev.degraded.Topo.Graph == d.Topo.Graph {
		base = prev.degraded.APSP
	}
	n := d.Topo.Graph.Order()
	v := &View{pristine: d, faults: fs}
	var down linkSet
	var degr degradeSet
	v.dead, down, degr = fs.filter(n)

	// One pass over the pristine fabric's slots fills the view's weights:
	// the effective cost where the edge survives, the same expression
	// degradedClone evaluates, so the repair relaxes it bit-identical to
	// the full rebuild; +Inf where it does not.
	fabric := d.APSP.Fabric()
	wt := make([]float64, fabric.NumSlots())
	fabric.ForEachSlot(func(slot, u, w int, pw float64) {
		wt[slot] = graph.Inf
		if keepEdge(v.dead, down, u, w) {
			wt[slot] = effWeight(degr, u, w, pw)
		}
	})
	apsp, _ := base.Reweigh(wt, 0)
	return buildView(v, d, d.Topo.Graph, apsp), nil
}

// Diff reports the first divergence between two views of the same
// order: the APSP cost matrix compared bitwise, the predecessors that
// mPareto, the full frontier and sim's loader walk (APSP.Path), the dead
// mask, and the component labelling. APSP.Pred is derived from the costs
// and the graph on read, so on a matrix whose rows are canonical it
// follows from the cost bits; the comparison is kept for the matrices
// whose rows are not, where Pred reads a search.
// It returns nil when the views are identical.
// The chaos harness runs it at every fault transition as a standing
// differential check of the incremental ApplyDelta path against the
// full rebuild.
func Diff(a, b *View) error {
	n := a.degraded.Topo.Graph.Order()
	if bn := b.degraded.Topo.Graph.Order(); bn != n {
		return fmt.Errorf("fault: view order %d != %d", n, bn)
	}
	if a.components() != b.components() {
		return fmt.Errorf("fault: component count %d != %d", a.components(), b.components())
	}
	pa, pb := a.degraded.APSP, b.degraded.APSP
	for u := 0; u < n; u++ {
		if a.Dead(u) != b.Dead(u) {
			return fmt.Errorf("fault: dead[%d]: %v != %v", u, a.Dead(u), b.Dead(u))
		}
		if a.component(u) != b.component(u) {
			return fmt.Errorf("fault: comp[%d]: %d != %d", u, a.component(u), b.component(u))
		}
		for v := 0; v < n; v++ {
			if ca, cb := pa.Cost(u, v), pb.Cost(u, v); math.Float64bits(ca) != math.Float64bits(cb) {
				return fmt.Errorf("fault: cost[%d][%d]: %v != %v (bitwise)", u, v, ca, cb)
			}
			if qa, qb := pa.Pred(u, v), pb.Pred(u, v); qa != qb {
				return fmt.Errorf("fault: pred[%d][%d]: %d != %d", u, v, qa, qb)
			}
		}
	}
	return nil
}

// label computes connected-component labels over the live vertices: the
// components of c's arcs that are not +Inf, numbered in the order of
// their least vertex.
func (v *View) label(c *graph.CSR) {
	n := c.Order()
	root := make([]int, n)
	v.comp = make([]int, n)
	for x := range root {
		root[x], v.comp[x] = x, -1
	}
	find := func(x int) int {
		for root[x] != x {
			root[x] = root[root[x]]
			x = root[x]
		}
		return x
	}
	c.ForEachSlot(func(_, x, y int, w float64) {
		if x < y && w < graph.Inf {
			root[find(x)] = find(y)
		}
	})
	for x := range n {
		if r := find(x); !v.Dead(x) {
			if v.comp[r] == -1 {
				v.comp[r] = v.ncomp
				v.ncomp++
			}
			v.comp[x] = v.comp[r]
		}
	}
}

// PPDC returns the degraded model: the live host/switch lists and the
// APSP over the degraded fabric. With no active faults it is the
// pristine model itself.
func (v *View) PPDC() *model.PPDC { return v.degraded }

// Faults returns the active fault set.
func (v *View) Faults() FaultSet { return v.faults }

// Degraded reports whether any fault is active.
func (v *View) Degraded() bool { return !v.faults.Empty() }

// Dead reports whether vertex u was explicitly failed (switch/host
// fault). Vertices isolated by link faults are alive but unreachable.
func (v *View) Dead(u int) bool { return v.dead != nil && v.dead[u] }

// component returns the connected-component label of u (−1 for dead
// vertices). Two live vertices can reach each other iff their labels
// match.
func (v *View) component(u int) int { return v.comp[u] }

// components returns the number of live connected components.
func (v *View) components() int { return v.ncomp }

// reachable reports whether two live vertices can still reach each
// other in the degraded fabric.
func (v *View) reachable(u, w int) bool {
	return v.comp[u] != -1 && v.comp[u] == v.comp[w]
}

// UnservedReason explains why a flow is excluded from service.
type UnservedReason string

const (
	// ReasonDeadEndpoint: the flow's source or destination host failed.
	ReasonDeadEndpoint UnservedReason = "dead_endpoint"
	// ReasonPartitioned: the endpoints are alive but in different
	// connected components.
	ReasonPartitioned UnservedReason = "partitioned"
	// ReasonOutsideRegion: the endpoints can reach each other but not the
	// service region hosting the SFC.
	ReasonOutsideRegion UnservedReason = "outside_region"
)

// UnservedFlow is one excluded flow with its reason — the explicit
// report that replaces an Inf-poisoned cost.
type UnservedFlow struct {
	Flow   int            `json:"flow"`
	Reason UnservedReason `json:"reason"`
}

// ServicePlan is the outcome of restricting a workload to what a
// degraded fabric can serve: the serving model (switch candidates
// limited to the service region), the served workload (excluded flows
// removed, so no cost ever touches an unreachable pair), a per-flow
// servable mask, and the report of exclusions.
type ServicePlan struct {
	// View is the degraded view the plan was computed from.
	View *View
	// PPDC is the serving model: the degraded fabric with Topo.Switches
	// restricted to the service region. Placement validation against it
	// rejects dead and out-of-region switches.
	PPDC *model.PPDC
	// Region is the component label of the service region (-1 when the
	// fabric has no live switch at all).
	Region int
	// Served is the workload restricted to servable flows, in the
	// original flow order. ServedIndex[i] is the original flow index of
	// Served[i].
	Served      model.Workload
	ServedIndex []int
	// Servable[i] reports whether flow i of the input workload is served.
	Servable []bool
	// Unserved lists the excluded flows with reasons, ascending by flow.
	Unserved []UnservedFlow
}

// PlanService chooses the service region of the degraded fabric and
// splits w into served and unserved flows.
//
// A degraded fabric may be partitioned; a single SFC lives in exactly
// one connected component, so flows outside that component cannot
// traverse it without paying an infinite cost. The plan picks the
// region greedily by traffic: the component (among those containing at
// least one live switch) whose internal flows carry the most total
// rate, breaking ties by live host count and then by lowest component
// label. Every flow with a dead endpoint, with endpoints in different
// components, or with endpoints outside the chosen region is excluded
// and reported, never Inf-costed.
//
// The choice is made from the rates in w at planning time and stays
// fixed for the life of the plan; replan after topology events, not
// rate churn.
func (v *View) PlanService(w model.Workload) *ServicePlan {
	d := v.degraded
	plan := &ServicePlan{View: v, Region: -1, Servable: make([]bool, len(w))}

	// Components eligible to host the SFC: at least one live switch.
	hasSwitch := make(map[int]bool)
	for _, s := range d.Topo.Switches {
		hasSwitch[v.comp[s]] = true
	}
	rate := make(map[int]float64) // eligible component -> intra rate
	hosts := make(map[int]int)    // component -> live host count
	for _, h := range d.Topo.Hosts {
		hosts[v.comp[h]]++
	}
	for _, f := range w {
		if v.Dead(f.Src) || v.Dead(f.Dst) {
			continue
		}
		c := v.comp[f.Src]
		if c == v.comp[f.Dst] && hasSwitch[c] {
			rate[c] += f.Rate
		}
	}
	best := -1
	for c := 0; c < v.ncomp; c++ {
		if !hasSwitch[c] {
			continue
		}
		if best == -1 || rate[c] > rate[best] ||
			(rate[c] == rate[best] && hosts[c] > hosts[best]) {
			best = c
		}
	}
	plan.Region = best

	// Serving model: degraded fabric, switches restricted to the region.
	if best == -1 {
		plan.PPDC = d
	} else if v.ncomp == 1 {
		plan.PPDC = d
	} else {
		t := *d.Topo
		t.Switches = nil
		for _, s := range d.Topo.Switches {
			if v.comp[s] == best {
				t.Switches = append(t.Switches, s)
			}
		}
		plan.PPDC = &model.PPDC{Topo: &t, APSP: d.APSP, Opts: d.Opts}
	}

	for i, f := range w {
		switch {
		case v.Dead(f.Src) || v.Dead(f.Dst):
			plan.Unserved = append(plan.Unserved, UnservedFlow{Flow: i, Reason: ReasonDeadEndpoint})
		case v.comp[f.Src] != v.comp[f.Dst]:
			plan.Unserved = append(plan.Unserved, UnservedFlow{Flow: i, Reason: ReasonPartitioned})
		case best == -1 || v.comp[f.Src] != best:
			plan.Unserved = append(plan.Unserved, UnservedFlow{Flow: i, Reason: ReasonOutsideRegion})
		default:
			plan.Servable[i] = true
			plan.ServedIndex = append(plan.ServedIndex, i)
			plan.Served = append(plan.Served, f)
		}
	}
	return plan
}

// Feasible reports whether the serving model can host an SFC of length n
// under the model's per-switch capacity.
func (p *ServicePlan) Feasible(n int) error {
	if p.Region == -1 {
		return fmt.Errorf("fault: no live switch in any component")
	}
	d := p.PPDC
	c := d.SwitchCap()
	if c > 0 && n > c*len(d.Topo.Switches) {
		return fmt.Errorf("fault: %d VNFs exceed %d live switches × capacity %d in the service region",
			n, len(d.Topo.Switches), c)
	}
	return nil
}

// CheckCosts verifies no served flow can see an infinite cost: every
// served endpoint must reach every switch of the service region. It is
// an internal-consistency probe used by the chaos harness and property
// tests, not a hot-path call.
func (p *ServicePlan) CheckCosts() error {
	d := p.PPDC
	for _, f := range p.Served {
		for _, s := range d.Topo.Switches {
			if math.IsInf(d.APSP.Cost(f.Src, s), 1) || math.IsInf(d.APSP.Cost(s, f.Dst), 1) {
				return fmt.Errorf("fault: served flow (%d,%d) cannot reach region switch %d", f.Src, f.Dst, s)
			}
		}
	}
	return nil
}
