package sfcroute

import (
	"math"
	"testing"

	"vnfopt/internal/graph"
	"vnfopt/internal/model"
	"vnfopt/internal/routing"
	"vnfopt/internal/topology"
)

func TestMaxFlowLinearBottleneck(t *testing.T) {
	topo, err := topology.Linear(2, nil)
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	res, err := maxFlow(topo.Graph, nil, 0, 3, uniformCapacity(5))
	if err != nil {
		t.Fatalf("maxFlow: %v", err)
	}
	if res.Flow != 5 {
		t.Fatalf("flow %v, want 5 (single path, uniform capacity)", res.Flow)
	}
	if res.Cost != 15 {
		t.Fatalf("cost %v, want 15 (5 units × 3 unit-weight hops)", res.Cost)
	}
}

func TestMaxFlowSplitsAcrossParallelPaths(t *testing.T) {
	topo, err := topology.Ring(4, nil)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	src, dst := topo.Hosts[0], topo.Hosts[2]
	// Host links are wide, switch links narrow: the flow must split over
	// both sides of the ring to beat a single path.
	capOf := func(l routing.Link) float64 {
		if l.U >= 4 || l.V >= 4 {
			return 10 // host attachment
		}
		return 3 // ring segment
	}
	res, err := maxFlow(topo.Graph, nil, src, dst, capOf)
	if err != nil {
		t.Fatalf("maxFlow: %v", err)
	}
	if res.Flow != 6 {
		t.Fatalf("flow %v, want 6 (3 per ring side)", res.Flow)
	}
}

func TestMaxFlowRelaxationIsPerLayer(t *testing.T) {
	// Star spur chain: the only site sits on a spur, so any unsplittable
	// routing crosses the spur link twice and the true shared-capacity
	// flow is cap/2. The relaxation prices the two crossings in separate
	// layers and reports the full cap — strictly optimistic, which is
	// the sound direction for rejection proofs.
	d := starTopo(t)
	res, err := maxFlow(d, [][]int{{3}}, 0, 2, uniformCapacity(5))
	if err != nil {
		t.Fatalf("maxFlow: %v", err)
	}
	if res.Flow != 5 {
		t.Fatalf("relaxation bound %v, want 5 (per-layer capacities)", res.Flow)
	}
	// The cost makes the overcommit visible: every unit crosses the spur
	// link in both layers (0-1, 1-3, 3-1, 1-2), so the spur carries 10
	// units against its capacity 5.
	if res.Cost != 20 {
		t.Fatalf("relaxed flow cost %v, want 20 (5 units × 4 crossings)", res.Cost)
	}
}

// starTopo builds the bare graph 0-1, 1-2, 1-3 used by relaxation tests.
func starTopo(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 1)
	return g
}

func TestMaxFlowDegenerateEndpoints(t *testing.T) {
	topo, err := topology.Linear(1, nil)
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	// n=0 with identical endpoints: nothing to route, nothing binds.
	res, err := maxFlow(topo.Graph, nil, 0, 0, uniformCapacity(5))
	if err != nil {
		t.Fatalf("maxFlow: %v", err)
	}
	if !math.IsInf(res.Flow, 1) {
		t.Fatalf("flow %v, want +Inf", res.Flow)
	}
	// A chain through a site forces real traffic even for src == dst.
	res, err = maxFlow(topo.Graph, [][]int{{1}}, 0, 0, uniformCapacity(5))
	if err != nil {
		t.Fatalf("chained maxFlow: %v", err)
	}
	if res.Flow != 5 {
		t.Fatalf("chained same-endpoint flow %v, want 5", res.Flow)
	}
}

func TestMaxFlowValidation(t *testing.T) {
	topo, err := topology.Linear(1, nil)
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	if _, err := maxFlow(topo.Graph, [][]int{{}}, 0, 2, uniformCapacity(1)); err == nil {
		t.Fatal("accepted an empty stage")
	}
	if _, err := maxFlow(topo.Graph, nil, 0, 2, func(routing.Link) float64 { return -1 }); err == nil {
		t.Fatal("accepted a negative capacity")
	}
}

func TestRouterMaxFlowTracksResidual(t *testing.T) {
	topo, err := topology.Linear(2, nil)
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	d := model.MustNew(topo, model.Options{})
	r, err := NewRouter(d, Config{Capacity: 10})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if _, err := r.maxFlow(0, 3); err == nil {
		t.Fatal("maxFlow before BeginEpoch succeeded")
	}
	if err := r.BeginEpoch(nil); err != nil {
		t.Fatalf("BeginEpoch: %v", err)
	}
	before, err := r.maxFlow(0, 3)
	if err != nil {
		t.Fatalf("maxFlow: %v", err)
	}
	if before.Flow != 10 {
		t.Fatalf("pristine bound %v, want 10", before.Flow)
	}
	if dec, _ := r.Admit(0, 3, 4); !dec.Admitted {
		t.Fatal("admit failed")
	}
	after, err := r.maxFlow(0, 3)
	if err != nil {
		t.Fatalf("maxFlow: %v", err)
	}
	if after.Flow != 6 {
		t.Fatalf("residual bound %v, want 6", after.Flow)
	}
}

// uniformCapacity gives every link capacity c.
func uniformCapacity(c float64) func(routing.Link) float64 {
	return func(routing.Link) float64 { return c }
}
