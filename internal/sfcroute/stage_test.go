package sfcroute

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vnfopt/internal/graph"
	"vnfopt/internal/mcf"
	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

// line returns the path graph 0-1-...-(n-1) with unit weights.
func line(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

// fabricRouter is a Router over a bare fabric, for route tests: its
// links have no capacity to admit against, but it routes.
func fabricRouter(t testing.TB, g *graph.Graph, sites [][]int) *Router {
	t.Helper()
	return capRouter(t, g, 0, sites)
}

// pathResult is one route read out of a Router.
type pathResult struct {
	Cost float64
	Walk []int
}

// shortestPath routes one pair on the router's own prices; ok is false
// when the chain is unroutable.
func shortestPath(t testing.TB, r *Router, src, dst int) (pathResult, bool) {
	t.Helper()
	cost, ok := r.route(src, dst, false)
	if !ok {
		return pathResult{}, false
	}
	return pathResult{Cost: cost, Walk: walkVertices(t, r.priced, src, r.walk)}, true
}

// walkVertices turns a route's arc slots into its vertex walk from src,
// failing when consecutive arcs do not join.
func walkVertices(t testing.TB, c *graph.CSR, src int, slots []int32) []int {
	t.Helper()
	from, to := make([]int, c.NumSlots()), make([]int, c.NumSlots())
	c.ForEachSlot(func(slot, u, v int, _ float64) { from[slot], to[slot] = u, v })
	walk := []int{src}
	for _, s := range slots {
		if from[s] != walk[len(walk)-1] {
			t.Fatalf("arc slot %d leaves %d, the walk %v stands at %d", s, from[s], walk, walk[len(walk)-1])
		}
		walk = append(walk, to[s])
	}
	return walk
}

func TestEmptyChainIsPlainShortestPath(t *testing.T) {
	base := line(6)
	res, ok := shortestPath(t, fabricRouter(t, base, nil), 0, 5)
	if !ok {
		t.Fatal("n=0 route unroutable on a line")
	}
	dist, _ := graph.AllPairs(base).Fabric().Dijkstra(0)
	if res.Cost != dist[5] {
		t.Fatalf("n=0 cost %v != plain Dijkstra %v", res.Cost, dist[5])
	}
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(res.Walk, want) {
		t.Fatalf("walk %v, want %v", res.Walk, want)
	}
}

func TestSiteAtSourceAndDestination(t *testing.T) {
	// Stage 1 sits on the source vertex, stage 2 on the destination: the
	// chain adds zero detour, and the source and tail legs are empty.
	res, ok := shortestPath(t, fabricRouter(t, line(5), [][]int{{0}, {4}}), 0, 4)
	if !ok {
		t.Fatal("on-path chain unroutable")
	}
	if res.Cost != 4 {
		t.Fatalf("cost %v, want 4 (no detour for on-path sites)", res.Cost)
	}
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(res.Walk, want) {
		t.Fatalf("walk %v, want %v", res.Walk, want)
	}
}

func TestSpurSiteDoublesLink(t *testing.T) {
	// Star: 0-1, 1-2, 1-3. Chain site 3 is a spur off the 0→2 path, so
	// the walk must enter and leave it over the same link.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 1)
	res, ok := shortestPath(t, fabricRouter(t, g, [][]int{{3}}), 0, 2)
	if !ok {
		t.Fatal("spur chain unroutable")
	}
	if res.Cost != 4 {
		t.Fatalf("cost %v, want 4 (0-1, 1-3 twice, 1-2)", res.Cost)
	}
	if want := []int{0, 1, 3, 1, 2}; !slices.Equal(res.Walk, want) {
		t.Fatalf("walk %v, want %v", res.Walk, want)
	}
}

// TestBeginEpochRejectsBadSites: an empty stage, or a site off the
// fabric, is refused before anything routes.
func TestBeginEpochRejectsBadSites(t *testing.T) {
	r := fabricRouter(t, line(4), nil)
	if err := r.BeginEpoch([][]int{{1}, {}}); !errors.Is(err, ErrNoSite) {
		t.Fatalf("empty stage: got %v, want ErrNoSite", err)
	}
	if err := r.BeginEpoch([][]int{{4}}); err == nil {
		t.Fatal("out-of-range site accepted")
	}
	if err := r.BeginEpoch([][]int{{-1}}); err == nil {
		t.Fatal("negative site accepted")
	}
}

// TestBeginEpochRefusesTwoSiteStage: a stage route crosses each stage at
// one site. Repeated entries of that site collapse; a second site is
// refused.
func TestBeginEpochRefusesTwoSiteStage(t *testing.T) {
	base := line(5)
	r := fabricRouter(t, base, [][]int{{3, 3, 3}})
	got, ok := shortestPath(t, r, 0, 1)
	want, wantOK := shortestPath(t, fabricRouter(t, base, [][]int{{3}}), 0, 1)
	if !ok || !wantOK || got.Cost != want.Cost || !slices.Equal(got.Walk, want.Walk) {
		t.Fatalf("repeated site routes %+v (%v), the singleton %+v (%v)", got, ok, want, wantOK)
	}
	if err := r.BeginEpoch([][]int{{1}, {2, 3}}); err == nil {
		t.Fatal("accepted a stage with sites 2 and 3")
	}
}

func TestUnreachableLayerFailsCleanly(t *testing.T) {
	// Two components: 0-1 and 2-3. A site in the far component makes the
	// stage uncrossable from src.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	r := fabricRouter(t, g, [][]int{{2}})
	if _, ok := shortestPath(t, r, 0, 1); ok {
		t.Fatal("routed a chain through an unreachable site")
	}
	if dec, err := r.Admit(0, 1, 0); err != nil || dec.Admitted || dec.Reason != ReasonNoPath {
		t.Fatalf("unreachable chain: %+v, %v; want a %q rejection", dec, err, ReasonNoPath)
	}
	// Bad endpoints are caller errors, not rejections.
	if _, err := r.Admit(-1, 1, 0); err == nil {
		t.Fatal("negative src accepted")
	}
	if _, err := r.Admit(0, 4, 0); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
}

// TestDifferentialMetricClosure is the acceptance-criterion differential:
// with capacities non-binding, the stage route's cost for a placement
// chain must match the metric-closure concatenation the optimizers
// price — bit-identical on unit-weight fabrics (all sums are small
// integers, exact in float64), within 1e-9 relative error on weighted
// fabrics (equal-cost ties may resolve to different paths whose sums
// associate differently).
func TestDifferentialMetricClosure(t *testing.T) {
	fixtures := []struct {
		name  string
		topo  *topology.Topology
		exact bool
	}{
		{"fat-tree-k8-unit", topology.MustFatTree(8, nil), true},
		{"fat-tree-k4-weighted", topology.MustFatTree(4, topology.PaperDelay(rand.New(rand.NewSource(7)))), false},
	}
	if jf, err := topology.Jellyfish(16, 4, 2, nil, rand.New(rand.NewSource(3))); err == nil {
		fixtures = append(fixtures, struct {
			name  string
			topo  *topology.Topology
			exact bool
		}{"jellyfish-16-unit", jf, true})
	} else {
		t.Fatalf("jellyfish fixture: %v", err)
	}
	if jf, err := topology.Jellyfish(14, 3, 1, topology.PaperDelay(rand.New(rand.NewSource(11))), rand.New(rand.NewSource(4))); err == nil {
		fixtures = append(fixtures, struct {
			name  string
			topo  *topology.Topology
			exact bool
		}{"jellyfish-14-weighted", jf, false})
	} else {
		t.Fatalf("weighted jellyfish fixture: %v", err)
	}

	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			d := model.MustNew(fx.topo, model.Options{})
			rng := rand.New(rand.NewSource(42))
			hosts, switches := d.Hosts(), d.Switches()
			for trial := 0; trial < 60; trial++ {
				src := hosts[rng.Intn(len(hosts))]
				dst := hosts[rng.Intn(len(hosts))]
				n := rng.Intn(4) // chains of length 0..3
				p := make(model.Placement, n)
				for j := range p {
					p[j] = switches[rng.Intn(len(switches))]
				}
				res, ok := shortestPath(t, fabricRouter(t, d.Topo.Graph, PlacementSites(p)), src, dst)
				if !ok {
					t.Fatalf("trial %d: (%d,%d | %v) unroutable", trial, src, dst, p)
				}
				// Metric-closure concatenation: src → p1 → … → pn → dst.
				closure := 0.0
				at := src
				for _, s := range p {
					closure += d.Cost(at, s)
					at = s
				}
				closure += d.Cost(at, dst)
				if fx.exact {
					if res.Cost != closure {
						t.Fatalf("trial %d: stage route cost %v != metric closure %v for (%d,%d | %v)",
							trial, res.Cost, closure, src, dst, p)
					}
				} else if diff := math.Abs(res.Cost - closure); diff > 1e-9*math.Max(1, closure) {
					t.Fatalf("trial %d: stage route cost %v vs metric closure %v (diff %v) for (%d,%d | %v)",
						trial, res.Cost, closure, diff, src, dst, p)
				}
				// The walk runs src to dst and visits the chain in order.
				if res.Walk[0] != src || res.Walk[len(res.Walk)-1] != dst {
					t.Fatalf("trial %d: walk %v does not run %d → %d", trial, res.Walk, src, dst)
				}
				next := 0
				for _, v := range res.Walk {
					for next < n && v == p[next] {
						next++
					}
				}
				if next != n {
					t.Fatalf("trial %d: walk %v visits %d of the chain %v in order", trial, res.Walk, next, p)
				}
			}
		})
	}
}

// fuzzFabric draws a small random multigraph: a forest that is
// sometimes disconnected, plus random extra edges, parallel ones
// included; weight draws each edge's weight.
func fuzzFabric(rng *rand.Rand, n int, weight func() float64) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		if rng.Intn(8) > 0 {
			g.AddEdge(rng.Intn(v), v, weight())
		}
	}
	for i := rng.Intn(n + 1); i > 0; i-- {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.AddEdge(u, v, weight())
		}
	}
	return g
}

// fuzzSites draws 0–3 stages of one site each, written with repeats, and
// sometimes on src or dst or on the previous stage's site.
func fuzzSites(rng *rand.Rand, n, stages, src, dst int) [][]int {
	sites := make([][]int, stages)
	for l := range sites {
		v := rng.Intn(n)
		switch rng.Intn(5) {
		case 0:
			v = src
		case 1:
			v = dst
		case 2:
			if l > 0 {
				v = sites[l-1][0]
			}
		}
		sites[l] = []int{v}
		for i := rng.Intn(3); i > 0; i-- {
			sites[l] = append(sites[l], v)
		}
	}
	return sites
}

// stageOracle routes src → sites → dst leg by leg with a full
// graph.Graph.Dijkstra per leg, and names each step u→v by the first
// arc slot of least weight from u to v in c. A leg is the path to its
// end in the tree of its start, except that with rootward, leg 0 is
// src's path in p_1's tree read towards p_1: an unpruned route's source
// leg, where a pruned attempt searches from src. It returns the walk's
// slots and cost, ok false when a leg is unreachable.
func stageOracle(g *graph.Graph, c *graph.CSR, sites [][]int, src, dst int, rootward bool) ([]int32, float64, bool) {
	from, to, wt := make([]int, c.NumSlots()), make([]int, c.NumSlots()), make([]float64, c.NumSlots())
	c.ForEachSlot(func(slot, u, v int, w float64) { from[slot], to[slot], wt[slot] = u, v, w })
	step := func(u, v int) int32 {
		best := int32(-1)
		for s := range from {
			if from[s] == u && to[s] == v && (best < 0 || wt[s] < wt[best]) {
				best = int32(s)
			}
		}
		return best
	}
	stops := []int{src}
	for _, stage := range sites {
		stops = append(stops, stage[0])
	}
	stops = append(stops, dst)
	var walk []int32
	for i := 1; i < len(stops); i++ {
		a, b := stops[i-1], stops[i]
		if i == 1 && rootward && len(sites) > 0 {
			dist, prev := g.Dijkstra(b)
			if dist[a] == graph.Inf {
				return nil, 0, false
			}
			for v := a; prev[v] >= 0; v = prev[v] {
				walk = append(walk, step(v, prev[v]))
			}
			continue
		}
		dist, prev := g.Dijkstra(a)
		if dist[b] == graph.Inf {
			return nil, 0, false
		}
		at := len(walk)
		for v := b; prev[v] >= 0; v = prev[v] {
			walk = append(walk, step(prev[v], v))
		}
		slices.Reverse(walk[at:])
	}
	cost := 0.0
	for _, s := range walk {
		cost += wt[s]
	}
	return walk, cost, true
}

// FuzzStageRoute holds the router's stage routes to a per-leg
// graph.Graph.Dijkstra oracle, bit for bit: walk slots, cost bits and
// reachability — an unpruned route with its source leg read from p_1's
// tree, a pruned one with it searched from src. Fabrics are small
// random multigraphs with zero-weight and +Inf (pruned) edges; chains
// have 0–3 stages, with repeated site entries, sites on the endpoints
// or on the previous stage's site, and stops that may be unreachable.
// Several routes and epochs share one Router — unpruned ones read the
// epoch's shared trees and stage paths, pruned ones search every leg —
// so no state of one route may leak into the next.
func FuzzStageRoute(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), uint8(40), uint8(0))
	f.Add(int64(2), uint8(7), uint8(3), uint8(0), uint8(30))
	f.Add(int64(3), uint8(2), uint8(0), uint8(128), uint8(60))
	f.Add(int64(4), uint8(9), uint8(1), uint8(200), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, order, stages, zero, inf uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(order)%9
		integer := rng.Intn(2) == 0
		g := fuzzFabric(rng, n, func() float64 {
			switch {
			case rng.Intn(256) < int(zero):
				return 0
			case rng.Intn(256) < int(inf):
				return math.Inf(1)
			case integer:
				return float64(1 + rng.Intn(3))
			}
			return 1 + 9*rng.Float64()
		})
		base := graph.AllPairs(g).Fabric()
		r := fabricRouter(t, g, nil)
		for epoch := 0; epoch < 3; epoch++ {
			sites := fuzzSites(rng, n, int(stages)%4, rng.Intn(n), rng.Intn(n))
			if err := r.BeginEpoch(sites); err != nil {
				t.Fatalf("BeginEpoch(%v): %v", sites, err)
			}
			copy(r.pruneWt, r.pricedWt)
			for i := 0; i < 6; i++ {
				src, dst := rng.Intn(n), rng.Intn(n)
				if i == 5 && len(sites) > 0 { // endpoints on the chain's ends
					src, dst = sites[0][0], sites[len(sites)-1][0]
				}
				for _, pruned := range []bool{false, true} {
					want, wantCost, wantOK := stageOracle(g, base, sites, src, dst, !pruned)
					cost, ok := r.route(src, dst, pruned)
					if ok != wantOK || ok && (!slices.Equal(r.walk, want) || math.Float64bits(cost) != math.Float64bits(wantCost)) {
						t.Fatalf("epoch %d, sites %v, %d → %d (pruned %v): route %v cost %v ok %v, oracle %v cost %v ok %v",
							epoch, sites, src, dst, pruned, r.walk, cost, ok, want, wantCost, wantOK)
					}
				}
			}
		}
	})
}

// layeredRoute is Sallam et al.'s layered search, built here as the
// reference the stage route replaces: len(sites)+1 copies of the
// fabric's edges, a zero-weight edge from (ℓ, p_{ℓ+1}) to (ℓ+1,
// p_{ℓ+1}), and one graph.Graph.Dijkstra from (0, src). A crossing is
// an undirected edge here; with one site per stage, going back down a
// crossing can only return to the vertex it left, so no shortest path
// does. It returns the projected walk and the cost, ok false when (n,
// dst) is unreachable.
func layeredRoute(n int, edges []graph.EdgeRecord, sites []int, src, dst int) ([]int, float64, bool) {
	g := graph.New((len(sites) + 1) * n)
	for l := 0; l <= len(sites); l++ {
		for _, e := range edges {
			g.AddEdge(l*n+e.U, l*n+e.V, e.Weight)
		}
		if l < len(sites) {
			g.AddEdge(l*n+sites[l], (l+1)*n+sites[l], 0)
		}
	}
	dist, prev := g.Dijkstra(src)
	target := len(sites)*n + dst
	if dist[target] == graph.Inf {
		return nil, 0, false
	}
	var walk []int
	for x := target; x >= 0; x = prev[x] {
		if p := prev[x]; p < 0 || p%n != x%n { // a crossing keeps its base vertex
			walk = append(walk, x%n)
		}
	}
	slices.Reverse(walk)
	return walk, dist[target], true
}

// layeredFlow is the max flow of Sallam et al.'s layered mcf network,
// built here as the reference the router's series of legs replaces: per
// layer, two arcs per edge record with its link's headroom as capacity
// and its weight as cost; per stage, one uncapacitated zero-cost
// crossing from layer ℓ to ℓ+1 at p_{ℓ+1}.
func layeredFlow(t *testing.T, r *Router, edges []graph.EdgeRecord, src, dst int) float64 {
	t.Helper()
	n := r.priced.Order()
	nw := mcf.NewNetwork((len(r.sites) + 1) * n)
	for l := 0; l <= len(r.sites); l++ {
		for _, e := range edges {
			i, _ := r.link(e.U, e.V)
			nw.AddArc(l*n+e.U, l*n+e.V, r.headroom(i), e.Weight)
			nw.AddArc(l*n+e.V, l*n+e.U, r.headroom(i), e.Weight)
		}
	}
	for l, p := range r.sites {
		nw.AddArc(l*n+p, (l+1)*n+p, math.Inf(1), 0)
	}
	s, sink := src, len(r.sites)*n+dst
	if s == sink {
		return math.Inf(1)
	}
	res, err := nw.MinCostFlow(s, sink, math.Inf(1))
	if err != nil {
		t.Fatalf("layered MinCostFlow: %v", err)
	}
	return res.Flow
}

// shortestPaths counts the shortest a → b paths of g, up to 2: the
// simple paths of tight steps u → v, dist(u) + w = dist(v) for some u–v
// edge of weight w. Where weights sum exactly, those are the shortest
// paths, and a path has one vertex walk whichever parallel edges it
// takes.
func shortestPaths(g *graph.Graph, a, b int) int {
	dist, _ := g.Dijkstra(a)
	on := make([]bool, g.Order())
	var count func(v int) int
	count = func(v int) int {
		if v == b {
			return 1
		}
		on[v] = true
		var next []int
		paths := 0
		for _, e := range g.Neighbors(v) {
			if !on[e.To] && !slices.Contains(next, e.To) && dist[v]+e.Weight == dist[e.To] {
				next = append(next, e.To)
				if paths += count(e.To); paths >= 2 {
					break
				}
			}
		}
		on[v] = false
		return min(paths, 2)
	}
	if dist[b] == graph.Inf {
		return 0
	}
	return count(a)
}

// TestStageRouteMatchesLayeredExpansion holds stage routes to the
// layered expansion they replace, on random small multigraphs with 0–3
// stages. On weights whose sums are exact — zero, dyadic and small
// integers — cost bits must be identical, and so must the walk wherever
// the shortest src → p_1 path is unique: the layered search takes the
// forward search's tie-break there, the stage route p_1's tree path read
// towards p_1. On weights whose sums round, a layered stage starts its
// search at the rounded cost of the stages before it, so a near tie may
// resolve the other way: there the cost must agree within 1e-12
// relative, and the walk is not held.
//
// On the same multigraphs the max-flow bound, a series of per-leg max
// flows, is held to the layered mcf network's max flow, with headroom
// set through committed loads: bit-equal on integer headroom, where
// every augmentation is exact, and within 1e-9 relative on fractional
// headroom, where the two networks augment in different orders.
func TestStageRouteMatchesLayeredExpansion(t *testing.T) {
	for _, tc := range []struct {
		name    string
		weights []float64
		exact   bool
	}{
		{"exact", []float64{0, 0.25, 0.5, 1, 2, 3}, true},
		{"rounding", []float64{0.1, 0.2, 0.3, 0.7, 1.1, 1.0 / 3}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			walks, ties, flows := 0, 0, 0
			for trial := 0; trial < 1500; trial++ {
				n := 2 + rng.Intn(9)
				g := fuzzFabric(rng, n, func() float64 { return tc.weights[rng.Intn(len(tc.weights))] })
				src, dst := rng.Intn(n), rng.Intn(n)
				sites := fuzzSites(rng, n, rng.Intn(4), src, dst)
				r := capRouter(t, g, 10, sites)
				got, ok := shortestPath(t, r, src, dst)
				walk, cost, wantOK := layeredRoute(n, g.Edges(), r.sites, src, dst)
				switch {
				case ok != wantOK:
					t.Fatalf("trial %d, sites %v, %d → %d: stage route ok %v, layered ok %v", trial, sites, src, dst, ok, wantOK)
				case !ok:
				case tc.exact && len(sites) > 0 && shortestPaths(g, src, r.sites[0]) > 1:
					ties++
					if math.Float64bits(got.Cost) != math.Float64bits(cost) {
						t.Fatalf("trial %d, sites %v, %d → %d: stage route cost %v, layered %v", trial, sites, src, dst, got.Cost, cost)
					}
					if !slices.Equal(got.Walk, walk) {
						walks++
					}
				case tc.exact && (math.Float64bits(got.Cost) != math.Float64bits(cost) || !slices.Equal(got.Walk, walk)):
					t.Fatalf("trial %d, sites %v, %d → %d: stage route %v cost %v, layered %v cost %v",
						trial, sites, src, dst, got.Walk, got.Cost, walk, cost)
				case math.Abs(got.Cost-cost) > 1e-12*math.Max(1, cost):
					t.Fatalf("trial %d, sites %v, %d → %d: stage route cost %v, layered %v", trial, sites, src, dst, got.Cost, cost)
				case !slices.Equal(got.Walk, walk):
					walks++
				}
				for _, integer := range []bool{true, false} {
					for i := range r.load {
						if r.load[i] = 10 * rng.Float64(); integer {
							r.load[i] = math.Floor(r.load[i] + 0.5)
						}
					}
					flow, err := r.maxFlow(src, dst)
					if err != nil {
						t.Fatalf("trial %d: maxFlow: %v", trial, err)
					}
					want := layeredFlow(t, r, g.Edges(), src, dst)
					exact := math.Float64bits(flow) == math.Float64bits(want)
					near := !math.IsInf(want, 0) && math.Abs(flow-want) <= 1e-9*math.Max(1, want)
					if !exact && (integer || !near) {
						t.Fatalf("trial %d, sites %v, %d → %d (integer headroom %v): leg bound %v, layered max flow %v",
							trial, sites, src, dst, integer, flow, want)
					}
					if !exact {
						flows++
					}
				}
			}
			t.Logf("%d walks differ from the layered search's, %d source legs tie, %d bounds in the low bits", walks, ties, flows)
		})
	}
}
