package sfcroute

import (
	"math"
	"testing"

	"vnfopt/internal/graph"
	"vnfopt/internal/topology"
)

// capRouter is a Router over a bare fabric whose links have the uniform
// capacity c, begun on sites.
func capRouter(t testing.TB, g *graph.Graph, c float64, sites [][]int) *Router {
	t.Helper()
	r := &Router{cfg: Config{Capacity: c, MaxUtilization: 1}}
	r.index(graph.AllPairs(g).Fabric())
	if err := r.BeginEpoch(sites); err != nil {
		t.Fatalf("BeginEpoch(%v): %v", sites, err)
	}
	return r
}

// bound is r.maxFlow(src, dst), failing the test on an error.
func bound(t *testing.T, r *Router, src, dst int) float64 {
	t.Helper()
	flow, err := r.maxFlow(src, dst)
	if err != nil {
		t.Fatalf("maxFlow(%d, %d): %v", src, dst, err)
	}
	return flow
}

func TestMaxFlowLinearBottleneck(t *testing.T) {
	r, err := NewRouter(linearPPDC(t, 2), Config{Capacity: 5})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if err := r.BeginEpoch(nil); err != nil {
		t.Fatalf("BeginEpoch: %v", err)
	}
	if got := bound(t, r, 0, 3); got != 5 {
		t.Fatalf("flow %v, want 5 (single path, uniform capacity)", got)
	}
}

func TestMaxFlowSplitsAcrossParallelPaths(t *testing.T) {
	topo, err := topology.Ring(4, nil)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	src, dst := topo.Hosts[0], topo.Hosts[2]
	// Host links keep their headroom 10, the ring segments carry 7 of
	// it: the flow must split over both sides of the ring to beat a
	// single path.
	r := capRouter(t, topo.Graph, 10, nil)
	for i, l := range r.links {
		if l.U < 4 && l.V < 4 {
			r.load[i] = 7
		}
	}
	if got := bound(t, r, src, dst); got != 6 {
		t.Fatalf("flow %v, want 6 (3 per ring side)", got)
	}
}

func TestMaxFlowRelaxationIsPerLayer(t *testing.T) {
	// Star spur chain: the only site sits on a spur, so any unsplittable
	// routing crosses the spur link twice and the true shared-capacity
	// flow is cap/2. The relaxation gives each leg the link's full
	// capacity and reports cap — strictly optimistic, which is the sound
	// direction for rejection proofs.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 1)
	if got := bound(t, capRouter(t, g, 5, [][]int{{3}}), 0, 2); got != 5 {
		t.Fatalf("relaxation bound %v, want 5 (per-leg capacities)", got)
	}
}

func TestMaxFlowDegenerateEndpoints(t *testing.T) {
	topo, err := topology.Linear(1, nil)
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	// n=0 with identical endpoints: nothing to route, nothing binds.
	if got := bound(t, capRouter(t, topo.Graph, 5, nil), 0, 0); !math.IsInf(got, 1) {
		t.Fatalf("flow %v, want +Inf", got)
	}
	// Every leg on one vertex: still nothing binds.
	if got := bound(t, capRouter(t, topo.Graph, 5, [][]int{{0}, {0}}), 0, 0); !math.IsInf(got, 1) {
		t.Fatalf("flow through a chain on the endpoint %v, want +Inf", got)
	}
	// A chain through a site forces real traffic even for src == dst.
	if got := bound(t, capRouter(t, topo.Graph, 5, [][]int{{1}}), 0, 0); got != 5 {
		t.Fatalf("chained same-endpoint flow %v, want 5", got)
	}
}

// TestMaxFlowValidation: the bound is an epoch's, so it refuses before
// the first BeginEpoch and after a refused one.
func TestMaxFlowValidation(t *testing.T) {
	r, err := NewRouter(linearPPDC(t, 1), Config{Capacity: 1})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if _, err := r.maxFlow(0, 2); err == nil {
		t.Fatal("maxFlow before BeginEpoch succeeded")
	}
	if err := r.BeginEpoch(nil); err != nil {
		t.Fatalf("BeginEpoch: %v", err)
	}
	if err := r.BeginEpoch([][]int{{}}); err == nil {
		t.Fatal("accepted an empty stage")
	}
	if _, err := r.maxFlow(0, 2); err == nil {
		t.Fatal("maxFlow after a refused BeginEpoch succeeded")
	}
}

func TestRouterMaxFlowTracksResidual(t *testing.T) {
	r, err := NewRouter(linearPPDC(t, 2), Config{Capacity: 10})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if err := r.BeginEpoch(nil); err != nil {
		t.Fatalf("BeginEpoch: %v", err)
	}
	if got := bound(t, r, 0, 3); got != 10 {
		t.Fatalf("pristine bound %v, want 10", got)
	}
	if dec, _ := r.Admit(0, 3, 4); !dec.Admitted {
		t.Fatal("admit failed")
	}
	if got := bound(t, r, 0, 3); got != 6 {
		t.Fatalf("residual bound %v, want 6", got)
	}
}
