package graph

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// line builds a path graph 0-1-2-...-(n-1) with unit weights.
func line(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func TestNewEmpty(t *testing.T) {
	g := New(0)
	if g.Order() != 0 || g.Size() != 0 {
		t.Fatalf("empty graph: order=%d size=%d", g.Order(), g.Size())
	}
	if !g.Connected() {
		t.Fatal("empty graph should be vacuously connected")
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name    string
		u, v    int
		w       float64
		wantMsg string
	}{
		{"out of range", 0, 5, 1, "out of range"},
		{"negative vertex", -1, 0, 1, "out of range"},
		{"self loop", 1, 1, 1, "self-loop"},
		{"negative weight", 0, 1, -2, "invalid weight"},
		{"nan weight", 0, 1, math.NaN(), "invalid weight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected panic")
				}
				if !strings.Contains(r.(string), tc.wantMsg) {
					t.Fatalf("panic %q does not contain %q", r, tc.wantMsg)
				}
			}()
			g := New(3)
			g.AddEdge(tc.u, tc.v, tc.w)
		})
	}
}

func TestHasEdgeAndWeight(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2.5)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected edge not visible from both endpoints")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
	if w := g.EdgeWeight(0, 1); w != 2.5 {
		t.Fatalf("weight = %v, want 2.5", w)
	}
	if w := g.EdgeWeight(0, 2); !math.IsInf(w, 1) {
		t.Fatalf("missing edge weight = %v, want +Inf", w)
	}
	// Parallel edges: minimum wins.
	g.AddEdge(0, 1, 1.0)
	if w := g.EdgeWeight(0, 1); w != 1.0 {
		t.Fatalf("parallel edge min = %v, want 1.0", w)
	}
	if g.Size() != 2 {
		t.Fatalf("size = %d, want 2", g.Size())
	}
}

func TestHasEdgeOutOfRange(t *testing.T) {
	g := New(2)
	if g.HasEdge(-1, 0) || g.HasEdge(5, 0) {
		t.Fatal("out-of-range HasEdge should be false")
	}
	if w := g.EdgeWeight(9, 0); !math.IsInf(w, 1) {
		t.Fatal("out-of-range EdgeWeight should be Inf")
	}
}

func TestDijkstraLine(t *testing.T) {
	g := line(5)
	dist, prev := g.Dijkstra(0)
	for i := 0; i < 5; i++ {
		if dist[i] != float64(i) {
			t.Fatalf("dist[%d] = %v, want %d", i, dist[i], i)
		}
	}
	if prev[0] != -1 || prev[4] != 3 {
		t.Fatalf("prev = %v", prev)
	}
}

func TestDijkstraPrefersCheapDetour(t *testing.T) {
	// 0-1 costs 10 direct, but 0-2-1 costs 3.
	g := New(3)
	g.AddEdge(0, 1, 10)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 1, 2)
	dist, prev := g.Dijkstra(0)
	if dist[1] != 3 {
		t.Fatalf("dist[1] = %v, want 3", dist[1])
	}
	if prev[1] != 2 || prev[2] != 0 || prev[0] != -1 {
		t.Fatalf("prev = %v, want the path 0-2-1", prev)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	dist, prev := g.Dijkstra(0)
	if !math.IsInf(dist[2], 1) || prev[2] != -1 {
		t.Fatalf("dist[2] = %v prev[2] = %d, want unreachable", dist[2], prev[2])
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := line(3)
	dist, prev := g.Dijkstra(1)
	if dist[1] != 0 || prev[1] != -1 {
		t.Fatalf("self dist = %v prev = %d", dist[1], prev[1])
	}
}

func TestBFSHops(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 100) // hops ignore weights
	g.AddEdge(1, 2, 100)
	hops := g.bfsHops(0)
	want := []int{0, 1, 2, -1}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("hops = %v, want %v", hops, want)
		}
	}
}

func TestConnected(t *testing.T) {
	if !line(4).Connected() {
		t.Fatal("line should be connected")
	}
	g := New(5)
	for i := 0; i < 3; i++ {
		g.AddEdge(i, i+1, 1)
	}
	if g.Connected() {
		t.Fatal("isolated vertex should disconnect")
	}
}

// TestClone holds a CloneMapped copy apart from its source. The identity
// map reproduces the graph, and an edge added to the copy lands neither
// in the source nor in a neighbour's list, though the copy's lists share
// one backing array.
func TestClone(t *testing.T) {
	g := line(3)
	c := g.CloneMapped(func(_, _ int, w float64) (float64, bool) { return w, true })
	if !slices.Equal(c.Edges(), g.Edges()) {
		t.Fatalf("identity clone edges %v, want %v", c.Edges(), g.Edges())
	}
	c.AddEdge(0, 2, 1)
	if g.HasEdge(0, 2) {
		t.Fatal("clone mutation leaked into original")
	}
	if g.Size() != 2 || c.Size() != 3 {
		t.Fatalf("sizes: g=%d c=%d", g.Size(), c.Size())
	}
	if nb := c.Neighbors(1); !slices.Equal(nb, []Edge{{0, 1}, {2, 1}}) {
		t.Fatalf("vertex 1's list %v after an edge was added at vertex 0, want it unchanged", nb)
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 3, 5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 2)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("len = %d", len(es))
	}
	if es[0] != (EdgeRecord{0, 1, 1}) || es[1] != (EdgeRecord{1, 3, 2}) || es[2] != (EdgeRecord{2, 3, 5}) {
		t.Fatalf("edges = %v", es)
	}
}

// randomConnectedGraph builds a random connected graph: a random spanning
// tree plus extra random edges, with weights in [1, 10).
func randomConnectedGraph(rng *rand.Rand, n, extra int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		g.AddEdge(u, v, 1+9*rng.Float64())
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 1+9*rng.Float64())
		}
	}
	return g
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(30)
		g := randomConnectedGraph(rng, n, n)
		src := rng.Intn(n)
		dist, _ := g.Dijkstra(src)
		// Reference Bellman-Ford.
		ref := make([]float64, n)
		for i := range ref {
			ref[i] = math.Inf(1)
		}
		ref[src] = 0
		for iter := 0; iter < n; iter++ {
			for u := 0; u < n; u++ {
				for _, e := range g.Neighbors(u) {
					if ref[u]+e.Weight < ref[e.To] {
						ref[e.To] = ref[u] + e.Weight
					}
				}
			}
		}
		for v := 0; v < n; v++ {
			if math.Abs(dist[v]-ref[v]) > 1e-9 {
				t.Fatalf("trial %d: dist[%d]=%v ref=%v", trial, v, dist[v], ref[v])
			}
		}
	}
}

func TestDijkstraSymmetryProperty(t *testing.T) {
	// On an undirected graph, c(u,v) == c(v,u).
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		g := randomConnectedGraph(r, n, n/2)
		u, v := rng.Intn(n), rng.Intn(n)
		du, _ := g.Dijkstra(u)
		dv, _ := g.Dijkstra(v)
		return math.Abs(du[v]-dv[u]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShortestPathCostMatchesEdgeSum(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(25)
		g := randomConnectedGraph(rng, n, n)
		s, tgt := rng.Intn(n), rng.Intn(n)
		dist, prev := g.Dijkstra(s)
		if math.IsInf(dist[tgt], 1) {
			t.Fatal("connected graph must have a path")
		}
		sum := 0.0
		for v := tgt; v != s; v = prev[v] {
			sum += g.EdgeWeight(prev[v], v)
		}
		if math.Abs(sum-dist[tgt]) > 1e-9 {
			t.Fatalf("path edge sum %v != reported cost %v", sum, dist[tgt])
		}
	}
}
