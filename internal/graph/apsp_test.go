package graph

import (
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
// one shared AllPairs matrix and
// of one matrix derived from it while half its rows were built. Every
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
	next, d := et.commit(false)
	derived, _ := base.ApplyEdgeDeltas(next, d, 0)
	for _, m := range []struct {
		name      string
		a, oracle *APSP
	}{
		{"shared", AllPairs(g), AllPairsSequential(g)},
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
