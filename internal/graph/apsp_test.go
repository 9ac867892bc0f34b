package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// allPairsWorkers is AllPairs with every row built at once over an
// explicit worker count (≤ 0 = GOMAXPROCS, 1 = sequential CSR kernel):
// the full build of the layout tests and the benchmarks.
func allPairsWorkers(g *Graph, workers int) *APSP {
	a := AllPairs(g)
	a.buildRows(nil, workers)
	return a
}

func TestAPSPMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnectedGraph(rng, 24, 24)
	a := AllPairs(g)
	if a.Order() != 24 {
		t.Fatalf("order = %d", a.Order())
	}
	for u := 0; u < g.Order(); u++ {
		dist, _ := g.Dijkstra(u)
		for v := 0; v < g.Order(); v++ {
			if math.Abs(a.Cost(u, v)-dist[v]) > 1e-9 {
				t.Fatalf("APSP(%d,%d)=%v dijkstra=%v", u, v, a.Cost(u, v), dist[v])
			}
		}
	}
}

func TestAPSPPathReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedGraph(rng, 20, 20)
	a := AllPairs(g)
	for u := 0; u < g.Order(); u++ {
		for v := 0; v < g.Order(); v++ {
			p := a.Path(u, v)
			if p == nil {
				t.Fatalf("nil path %d->%d in connected graph", u, v)
			}
			if p[0] != u || p[len(p)-1] != v {
				t.Fatalf("path endpoints %v for %d->%d", p, u, v)
			}
			sum := 0.0
			for i := 0; i+1 < len(p); i++ {
				w := g.EdgeWeight(p[i], p[i+1])
				if math.IsInf(w, 1) {
					t.Fatalf("path %v uses non-edge (%d,%d)", p, p[i], p[i+1])
				}
				sum += w
			}
			if math.Abs(sum-a.Cost(u, v)) > 1e-9 {
				t.Fatalf("path cost %v != matrix cost %v", sum, a.Cost(u, v))
			}
		}
	}
}

func TestAPSPUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	a := AllPairs(g)
	if !math.IsInf(a.Cost(0, 2), 1) {
		t.Fatal("2 should be unreachable")
	}
	if a.Path(0, 2) != nil {
		t.Fatal("path to unreachable should be nil")
	}
	if math.IsInf(a.Cost(0, 1), 1) || len(a.Path(0, 1))-1 != 1 || len(a.Path(1, 1))-1 != 0 {
		t.Fatal("reachability bookkeeping wrong")
	}
}

func TestAPSPDiameterLine(t *testing.T) {
	a := AllPairs(line(6))
	if d := a.Diameter(); d != 5 {
		t.Fatalf("diameter = %v, want 5", d)
	}
}

func TestAPSPDiameterIgnoresUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	// 2,3 isolated
	a := AllPairs(g)
	if d := a.Diameter(); d != 2 {
		t.Fatalf("diameter = %v, want 2", d)
	}
}

func TestCostMatrixTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(16)
		g := randomConnectedGraph(r, n, n)
		a := AllPairs(g)
		keep := make([]int, 0, n)
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 {
				keep = append(keep, v)
			}
		}
		if len(keep) < 3 {
			return true
		}
		m := a.CostMatrix(keep)
		// Check triangle inequality on the closure for random triples.
		for trial := 0; trial < 20; trial++ {
			i, j, k := rng.Intn(len(keep)), rng.Intn(len(keep)), rng.Intn(len(keep))
			if i == j || j == k || i == k {
				continue
			}
			if m[i][k] > m[i][j]+m[j][k]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCostMatrix(t *testing.T) {
	g := line(5)
	a := AllPairs(g)
	m := a.CostMatrix([]int{0, 4, 2})
	if m[0][1] != 4 || m[1][0] != 4 || m[0][2] != 2 || m[2][1] != 2 || m[1][1] != 0 {
		t.Fatalf("cost matrix = %v", m)
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 3)
	var sb strings.Builder
	if err := g.WriteDOT(&sb, "", []string{"h1", "s1"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"graph G {", `0 [label="h1"]`, `1 [label="s1"]`, `0 -- 1 [label="3"]`} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentRowReads has 8 goroutines read random rows — through
// Cost, Pred, Row, Path, CostMatrix and SumScaledCells, so single rows,
// inline batches and batches past fanOutArcs are built side by side — of
// one shared AllPairs matrix, of one matrix derived from it while half
// its rows were built, and of one whose zero weight makes Pred and Path
// read the search the matrix keeps. Every
// answer must carry the oracle's bits; under -race (make race) it also
// proves a row is published only after its cells are written.
func TestConcurrentRowReads(t *testing.T) {
	et, switches := fatTreeEdges(8)
	g := et.graph()
	base := AllPairs(g)
	for u := 0; u < g.Order(); u += 2 {
		base.Row(u)
	}
	et.vertexUp(3, false)
	et.w[0] = 4
	next, wt := et.commit()
	derived, _ := base.Reweigh(wt, 0)
	zt, _ := fatTreeEdges(8)
	zt.w[0] = 0
	traced := zt.graph()
	for _, m := range []struct {
		name      string
		a, oracle *APSP
	}{
		{"shared", AllPairs(g), AllPairsSequential(g)},
		{"traced", AllPairs(traced), AllPairsSequential(traced)},
		{"derived", derived, AllPairsSequential(next)},
	} {
		a, want, n := m.a, m.oracle, m.oracle.n
		var wg sync.WaitGroup
		for w := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for range 40 {
					u, v := rng.Intn(n), rng.Intn(n)
					keep := []int{u, rng.Intn(switches), rng.Intn(n), v}
					for range 16 {
						keep = append(keep, rng.Intn(n))
					}
					cm := a.CostMatrix(keep)
					acc := make([]float64, n)
					a.SumScaledCells(acc, keep[:2], []float64{1, 2}, AppendStretches(nil, []int{v}), nil, nil, nil)
					c := want.Cost(u, v)
					switch {
					case math.Float64bits(a.Cost(u, v)) != math.Float64bits(c) || a.Row(u).Cost(v) != c:
						t.Errorf("%s: c(%d,%d) = %v, oracle %v", m.name, u, v, a.Cost(u, v), c)
					case a.Pred(u, v) != want.Pred(u, v) || !slices.Equal(a.Path(u, v), want.Path(u, v)):
						t.Errorf("%s: path %d→%d %v, oracle %v", m.name, u, v, a.Path(u, v), want.Path(u, v))
					case cm[0][3] != c || cm[2][1] != want.Cost(keep[2], keep[1]):
						t.Errorf("%s: CostMatrix over %v disagrees with the oracle", m.name, keep)
					case acc[v] != want.Cost(keep[0], v)+2*want.Cost(keep[1], v):
						t.Errorf("%s: SumScaledCells at %d = %v", m.name, v, acc[v])
					default:
						continue
					}
					return
				}
			}()
		}
		wg.Wait()
		apspBitEqual(t, a, want)
	}
}

// predMatchesTrace fails unless a's Pred and Path agree, for every
// (u, v), with the links g.Dijkstra(u) leaves: the adjacency-list search,
// which shares no code with the derivation. A row's Pred is checked in
// full before its Path, so a rule that cycles fails there, not in a Path
// that never ends.
func predMatchesTrace(t *testing.T, name string, a *APSP, g *Graph) {
	t.Helper()
	for u := range g.Order() {
		dist, prev := g.Dijkstra(u)
		for v := range g.Order() {
			if got := a.Pred(u, v); got != prev[v] {
				t.Fatalf("%s: Pred(%d, %d) = %d, the search leaves %d", name, u, v, got, prev[v])
			}
		}
		for v := range g.Order() {
			var want []int
			if !math.IsInf(dist[v], 1) {
				for x := v; x != -1; x = prev[x] {
					want = append(want, x)
				}
				slices.Reverse(want)
			}
			if got := a.Path(u, v); !slices.Equal(got, want) {
				t.Fatalf("%s: Path(%d, %d) = %v, the search's %v", name, u, v, got, want)
			}
		}
	}
}

// TestPredMatchesDijkstraTrace holds the predecessors Pred and Path
// derive on read to Graph.Dijkstra's trace: over a unit-weight k=4 fat
// tree, full of ties, and random multigraphs with parallel edges and
// weights from a tie-heavy palette — AllPairs, AllPairsSequential and
// every matrix of a mixed delta sequence that also passes through a zero
// and an absorbing weight — and over the two shapes on which the tight
// rule alone would cycle.
func TestPredMatchesDijkstraTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	fat, _ := fatTreeEdges(4)
	tables := []*edgeTable{fat}
	for range 6 {
		n := 6 + rng.Intn(30)
		et := &edgeTable{n: n}
		for v := 1; v < n; v++ {
			et.add(rng.Intn(v), v, float64(1+rng.Intn(3)))
		}
		for i := n; i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				et.add(u, v, float64(1+rng.Intn(3)))
			}
		}
		et.add(et.u[0], et.v[0], et.w[0]+1) // a parallel edge at least
		tables = append(tables, et)
	}
	for i, et := range tables {
		g := et.graph()
		predMatchesTrace(t, "AllPairs", AllPairs(g), g)
		predMatchesTrace(t, "AllPairsSequential", AllPairsSequential(g), g)
		cur := AllPairs(g)
		for step := range 8 {
			e := rng.Intn(len(et.u))
			switch rng.Intn(5) {
			case 0:
				et.pairUp(e, false)
			case 1:
				et.vertexUp(rng.Intn(et.n), false)
			case 2:
				et.w[e] = float64(1 + rng.Intn(3))
			case 3:
				et.w[e] = []float64{0, 1e300}[rng.Intn(2)]
			}
			if rng.Intn(3) == 0 {
				for j := range et.up {
					et.up[j] = true
				}
			}
			next, wt := et.commit()
			cur, _ = cur.Reweigh(wt, 2)
			predMatchesTrace(t, fmt.Sprintf("graph %d delta %d", i, step), cur, next)
		}
	}

	// The tight rule gives 1 and 2 to each other here, by a zero weight
	// and by an absorbing one; the search gives 3 to both.
	for _, w := range []struct{ far, near float64 }{{1, 0}, {1e300, 1}} {
		g := New(4)
		g.AddEdge(0, 3, w.far)
		g.AddEdge(3, 1, w.near)
		g.AddEdge(3, 2, w.near)
		g.AddEdge(1, 2, w.near)
		a := AllPairs(g)
		if !math.IsInf(a.span, 1) {
			t.Fatalf("fixture %v: span %v, want the rows not canonical", w, a.span)
		}
		predMatchesTrace(t, fmt.Sprint(w), a, g)
		if p := a.Path(0, 1); !slices.Equal(p, []int{0, 3, 1}) {
			t.Fatalf("fixture %v: Path(0, 1) = %v, want [0 3 1]", w, p)
		}
	}
}
