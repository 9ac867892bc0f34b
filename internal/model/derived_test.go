package model_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vnfopt/internal/fault"
	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

// TestDerivedCacheMatchesFresh walks a fault sequence through
// fault.ApplyDelta — a link cut, a degrade, a switch failure (the switch
// list changes), a host failure (the served set changes), a rate change
// on an unchanged fabric, a service region narrowed and widened again
// over an unchanged matrix, and the heal back to pristine — deriving each
// cache from the one before with OnFabric. Every derived cache holds the
// bits a fresh one holds: both endpoint pairs, the closure read row by
// row through its view, Λ and the direct cost; its floor is at most the
// fresh closure's least cost between two switches. The parent is left as
// it was.
func TestDerivedCacheMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fat := topology.MustFatTree(4, topology.PaperDelay(rng))
	jelly, err := topology.Jellyfish(40, 4, 2, topology.PaperDelay(rng), rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []*topology.Topology{fat, jelly} {
		t.Run(topo.Name, func(t *testing.T) {
			derivedChain(t, model.MustNew(topo, model.Options{}), rng)
		})
	}
}

func derivedChain(t *testing.T, d *model.PPDC, rng *rand.Rand) {
	hosts := d.Hosts()
	w := make(model.Workload, 80)
	for i := range w {
		w[i] = model.VMPair{Src: hosts[rng.Intn(len(hosts))], Dst: hosts[rng.Intn(len(hosts))], Rate: rng.Float64() * 10}
		if i%9 == 0 {
			w[i].Rate = 0
		}
	}
	var links [][2]int // switch-to-switch links, u < v
	isSwitch := make(map[int]bool)
	for _, s := range d.Switches() {
		isSwitch[s] = true
	}
	for _, s := range d.Switches() {
		for _, e := range d.Topo.Graph.Neighbors(s) {
			if isSwitch[e.To] && s < e.To {
				links = append(links, [2]int{s, e.To})
			}
		}
	}
	cut := fault.Fault{Kind: fault.Link, U: links[0][0], V: links[0][1]}
	degrade := fault.Fault{Kind: fault.Degrade, U: links[len(links)/2][0], V: links[len(links)/2][1], Factor: 3}
	sw := fault.Fault{Kind: fault.Switch, U: d.Switches()[len(d.Switches())-1]}
	host := fault.Fault{Kind: fault.Host, U: w[1].Src}
	fs := fault.FaultSet{}

	cache := d.NewWorkloadCache(w)
	cache.UnitEndpointCosts()
	var view *fault.View
	// step derives the next cache on plan's serving model and checks it.
	step := func(name string, pd *model.PPDC, served model.Workload) {
		t.Helper()
		before := snapshot(cache)
		next := cache.OnFabric(pd, served)
		fresh := pd.NewWorkloadCache(served)
		if err := sameCache(snapshot(next), snapshot(fresh)); err != "" {
			t.Fatalf("%s: derived cache differs from a fresh one: %s", name, err)
		}
		if err := sameCache(snapshot(cache), before); err != "" {
			t.Fatalf("%s: the parent cache changed: %s", name, err)
		}
		cache = next
	}
	apply := func(name string, next fault.FaultSet) *fault.ServicePlan {
		t.Helper()
		v, err := fault.ApplyDelta(d, view, next)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		view, fs = v, next
		plan := v.PlanService(w)
		step(name, plan.PPDC, plan.Served)
		return plan
	}
	apply("link cut", fs.Add(cut))
	apply("degrade", fs.Add(degrade))
	apply("switch failure", fs.Add(sw))
	plan := apply("host failure", fs.Add(host))

	// New rates over the same fabric: every block is shared, so only the
	// marginals tell the copy apart from a re-sum.
	served := append(model.Workload(nil), plan.Served...)
	for i := range served {
		served[i].Rate *= 1.5
	}
	step("rate change", plan.PPDC, served)

	// The service region moves over the same matrix, as PlanService
	// moves it between the components of a partitioned fabric: only the
	// switch cells differ, and a cell the parent never summed is 0 there.
	topo := *plan.PPDC.Topo
	topo.Switches = topo.Switches[:len(topo.Switches)/2]
	step("narrowed region", &model.PPDC{Topo: &topo, APSP: plan.PPDC.APSP, Opts: plan.PPDC.Opts}, served)
	step("widened region", plan.PPDC, served)

	apply("heal one", fs.Remove(cut))
	if p := apply("heal to pristine", fault.FaultSet{}); p.PPDC != d {
		t.Fatalf("an empty fault set serves on %p, want the pristine model %p", p.PPDC, d)
	}
}

// cacheState is everything a cache answers, copied out.
type cacheState struct {
	in, eg, unitIn, unitEg []float64
	closure                [][]float64
	floor, total, direct   float64
}

func snapshot(c *model.WorkloadCache) cacheState {
	var s cacheState
	in, eg := c.EndpointCosts()
	unitIn, unitEg := c.UnitEndpointCosts()
	closure := c.SwitchCosts()
	s.in, s.eg = slices.Clone(in), slices.Clone(eg)
	s.unitIn, s.unitEg = slices.Clone(unitIn), slices.Clone(unitEg)
	for i := range closure.Len() {
		s.closure = append(s.closure, slices.Clone(closure.Row(i)))
	}
	s.floor, s.total, s.direct = closure.Floor(), c.TotalRate(), c.CommCost(nil)
	return s
}

// sameCache compares two states bit for bit — a's floor only to b's
// closure, which it must not exceed off the diagonal — and names the
// first difference, "" when there is none.
func sameCache(a, b cacheState) string {
	vec := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	switch {
	case !vec(a.in, b.in) || !vec(a.eg, b.eg):
		return "endpoint vectors"
	case !vec(a.unitIn, b.unitIn) || !vec(a.unitEg, b.unitEg):
		return "rate-1 endpoint vectors"
	case !slices.EqualFunc(a.closure, b.closure, vec):
		return "switch closure"
	case a.floor > offDiagonalMin(b.closure):
		return "closure floor"
	case math.Float64bits(a.total) != math.Float64bits(b.total):
		return "Λ"
	case math.Float64bits(a.direct) != math.Float64bits(b.direct):
		return "direct cost"
	}
	return ""
}

// offDiagonalMin returns the least cell of m off its diagonal.
func offDiagonalMin(m [][]float64) float64 {
	least := math.Inf(1)
	for i, row := range m {
		for j, x := range row {
			if i != j {
				least = min(least, x)
			}
		}
	}
	return least
}
