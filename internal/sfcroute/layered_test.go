package sfcroute

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vnfopt/internal/graph"
	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

// line returns the CSR of a path graph 0-1-...-(n-1) with unit weights.
func line(n int) *graph.CSR {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g.Freeze()
}

// shortestPath routes one pair on the expansion's own weights with a
// fresh scratch.
func shortestPath(lay *Layered, src, dst int) (PathResult, error) {
	var s SearchScratch
	return lay.shortestPathOn(lay.csr, src, dst, &s)
}

func TestEmptyChainIsPlainShortestPath(t *testing.T) {
	base := line(6)
	lay, err := buildLayered(base, nil)
	if err != nil {
		t.Fatalf("buildLayered(nil): %v", err)
	}
	if lay.Order() != base.Order() {
		t.Fatalf("n=0 expansion has order %d, want the fabric's %d", lay.Order(), base.Order())
	}
	res, err := shortestPath(lay, 0, 5)
	if err != nil {
		t.Fatalf("shortestPathOn: %v", err)
	}
	dist, _ := base.Dijkstra(0)
	if res.Cost != dist[5] {
		t.Fatalf("n=0 cost %v != plain Dijkstra %v", res.Cost, dist[5])
	}
	want := []int{0, 1, 2, 3, 4, 5}
	if len(res.Walk) != len(want) {
		t.Fatalf("walk %v, want %v", res.Walk, want)
	}
	for i := range want {
		if res.Walk[i] != want[i] {
			t.Fatalf("walk %v, want %v", res.Walk, want)
		}
	}
	if len(res.Gateways) != 0 {
		t.Fatalf("n=0 walk has gateways %v", res.Gateways)
	}
}

func TestSiteAtSourceAndDestination(t *testing.T) {
	base := line(5)
	// Stage 1 sits on the source vertex, stage 2 on the destination:
	// the chain adds zero detour and both crossings are at walk endpoints.
	lay, err := buildLayered(base, [][]int{{0}, {4}})
	if err != nil {
		t.Fatalf("buildLayered: %v", err)
	}
	res, err := shortestPath(lay, 0, 4)
	if err != nil {
		t.Fatalf("shortestPathOn: %v", err)
	}
	if res.Cost != 4 {
		t.Fatalf("cost %v, want 4 (no detour for on-path sites)", res.Cost)
	}
	if len(res.Walk) != 5 || res.Walk[0] != 0 || res.Walk[4] != 4 {
		t.Fatalf("walk %v, want [0 1 2 3 4]", res.Walk)
	}
	if len(res.Gateways) != 2 || res.Gateways[0] != 0 || res.Gateways[1] != 4 {
		t.Fatalf("gateways %v, want [0 4]", res.Gateways)
	}
}

func TestSpurSiteDoublesLink(t *testing.T) {
	// Star: 0-1, 1-2, 1-3. Chain site 3 is a spur off the 0→2 path, so
	// the walk must enter and leave it over the same link.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 1)
	lay, err := buildLayered(g.Freeze(), [][]int{{3}})
	if err != nil {
		t.Fatalf("buildLayered: %v", err)
	}
	res, err := shortestPath(lay, 0, 2)
	if err != nil {
		t.Fatalf("shortestPathOn: %v", err)
	}
	if res.Cost != 4 {
		t.Fatalf("cost %v, want 4 (0-1, 1-3 twice, 1-2)", res.Cost)
	}
	want := []int{0, 1, 3, 1, 2}
	if len(res.Walk) != len(want) {
		t.Fatalf("walk %v, want %v", res.Walk, want)
	}
	for i := range want {
		if res.Walk[i] != want[i] {
			t.Fatalf("walk %v, want %v", res.Walk, want)
		}
	}
	if len(res.Gateways) != 1 || res.Gateways[0] != 3 {
		t.Fatalf("gateways %v, want [3]", res.Gateways)
	}
}

func TestBuildLayeredErrors(t *testing.T) {
	base := line(4)
	if _, err := buildLayered(base, [][]int{{1}, {}}); !errors.Is(err, ErrNoSite) {
		t.Fatalf("empty stage: got %v, want ErrNoSite", err)
	}
	if _, err := buildLayered(base, [][]int{{4}}); err == nil {
		t.Fatal("out-of-range site accepted")
	}
	if _, err := buildLayered(base, [][]int{{-1}}); err == nil {
		t.Fatal("negative site accepted")
	}
}

func TestUnreachableLayerFailsCleanly(t *testing.T) {
	// Two components: 0-1 and 2-3. A site in the far component makes the
	// layer boundary uncrossable from src.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	lay, err := buildLayered(g.Freeze(), [][]int{{2}})
	if err != nil {
		t.Fatalf("buildLayered: %v", err)
	}
	if _, err := shortestPath(lay, 0, 1); !errors.Is(err, ErrUnroutable) {
		t.Fatalf("unreachable chain: got %v, want ErrUnroutable", err)
	}
	// Bad endpoints are caller errors, not ErrUnroutable.
	if _, err := shortestPath(lay, -1, 1); err == nil || errors.Is(err, ErrUnroutable) {
		t.Fatalf("negative src: got %v", err)
	}
	if _, err := shortestPath(lay, 0, 4); err == nil || errors.Is(err, ErrUnroutable) {
		t.Fatalf("out-of-range dst: got %v", err)
	}
}

func TestShortestPathOnRejectsForeignView(t *testing.T) {
	lay, err := buildLayered(line(4), [][]int{{1}})
	if err != nil {
		t.Fatalf("buildLayered: %v", err)
	}
	var s SearchScratch
	if _, err := lay.shortestPathOn(line(4), 0, 3, &s); err == nil {
		t.Fatal("accepted a weight view with the wrong order")
	}
}

// TestDifferentialMetricClosure is the acceptance-criterion differential:
// with capacities non-binding, the layered shortest-path cost for a
// placement chain must match the metric-closure concatenation the
// optimizers price — bit-identical on unit-weight fabrics (all sums are
// small integers, exact in float64), within 1e-9 relative error on
// weighted fabrics (equal-cost ties may resolve to different paths whose
// sums associate differently).
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
			base := d.Topo.Graph.Freeze()
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
				lay, err := buildLayered(base, PlacementSites(p))
				if err != nil {
					t.Fatalf("trial %d: buildLayered(%v): %v", trial, p, err)
				}
				res, err := shortestPath(lay, src, dst)
				if err != nil {
					t.Fatalf("trial %d: shortestPathOn(%d,%d | %v): %v", trial, src, dst, p, err)
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
						t.Fatalf("trial %d: layered cost %v != metric closure %v for (%d,%d | %v)",
							trial, res.Cost, closure, src, dst, p)
					}
				} else if diff := math.Abs(res.Cost - closure); diff > 1e-9*math.Max(1, closure) {
					t.Fatalf("trial %d: layered cost %v vs metric closure %v (diff %v) for (%d,%d | %v)",
						trial, res.Cost, closure, diff, src, dst, p)
				}
				// The projected walk re-prices to the same cost under the
				// pristine weights and visits the chain in order.
				if len(res.Gateways) != n {
					t.Fatalf("trial %d: %d gateways for chain of %d", trial, len(res.Gateways), n)
				}
				for j, gw := range res.Gateways {
					if gw != p[j] {
						t.Fatalf("trial %d: gateway %d is %d, want %d", trial, j, gw, p[j])
					}
				}
			}
		})
	}
}

// FuzzLayeredSearch holds the bounded layered search to a full
// DijkstraInto on the same weight view: for every target, the route it
// reads — cost bits, walk, gateways, error — must be the full tree's.
// Fabrics are small and random, with zero-weight links and +Inf
// (pruned) slots; chains have 0–3 stages of up to three sites, with
// repeated sites and sites at the endpoints; target sets repeat and may
// be unreachable. Several searches share one scratch, so the stamps of
// one search must not leak into the next.
func FuzzLayeredSearch(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), uint8(40), uint8(0))
	f.Add(int64(2), uint8(7), uint8(3), uint8(0), uint8(30))
	f.Add(int64(3), uint8(2), uint8(0), uint8(128), uint8(60))
	f.Add(int64(4), uint8(9), uint8(1), uint8(200), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, order, stages, zero, inf uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(order)%9
		integer := rng.Intn(2) == 0
		weight := func() float64 {
			switch {
			case rng.Intn(256) < int(zero):
				return 0
			case integer:
				return float64(1 + rng.Intn(3))
			}
			return 1 + 9*rng.Float64()
		}
		g := graph.New(n)
		for v := 1; v < n; v++ {
			if rng.Intn(8) > 0 { // sometimes disconnected
				g.AddEdge(rng.Intn(v), v, weight())
			}
		}
		for i := rng.Intn(n + 1); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.AddEdge(u, v, weight())
			}
		}
		src, dst := rng.Intn(n), rng.Intn(n)
		sites := make([][]int, int(stages)%4)
		for l := range sites {
			for i := 1 + rng.Intn(3); i > 0; i-- {
				sites[l] = append(sites[l], rng.Intn(n))
			}
			switch rng.Intn(4) {
			case 0:
				sites[l] = append(sites[l], src)
			case 1:
				sites[l] = append(sites[l], dst)
			case 2:
				sites[l] = append(sites[l], sites[l][0]) // a repeated site
			}
		}
		lay, err := buildLayered(g.Freeze(), sites)
		if err != nil {
			t.Fatalf("buildLayered(%v): %v", sites, err)
		}
		wt := make([]float64, lay.csr.NumSlots())
		lay.csr.ForEachSlot(func(slot, _, _ int, w float64) {
			if wt[slot] = w; rng.Intn(256) < int(inf) {
				wt[slot] = math.Inf(1)
			}
		})
		view := lay.csr.WithWeights(wt)
		var s SearchScratch
		for search := 0; search < 3; search++ {
			dsts := []int{dst}
			for i := rng.Intn(4); i > 0; i-- {
				dsts = append(dsts, rng.Intn(n))
			}
			lay.search(view, src, &s, dsts...)
			dist, prev := view.Dijkstra(src)
			full := &SearchScratch{dist: dist, prev: prev}
			for _, d := range dsts {
				got, gotErr := lay.pathFrom(src, d, &s)
				want, wantErr := lay.pathFrom(src, d, full)
				if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || !slices.Equal(got.Walk, want.Walk) ||
					!slices.Equal(got.Gateways, want.Gateways) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("search %d, sites %v, %d → %d of targets %v: bounded %+v (%v), full %+v (%v)",
						search, sites, src, d, dsts, got, gotErr, want, wantErr)
				}
			}
			src, dst = rng.Intn(n), rng.Intn(n)
		}
	})
}
