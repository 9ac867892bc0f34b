package ilp

import (
	"math"
	"math/rand"
	"testing"

	"vnfopt/internal/graph"
	"vnfopt/internal/model"
	"vnfopt/internal/stroll"
	"vnfopt/internal/topology"
)

// fig4 builds the paper's Fig. 4(a) graph (see stroll tests):
// 0=s, 1=A, 2=B, 3=C, 4=D, 5=t.
func fig4() *TOP1 {
	g := graph.New(6)
	g.AddEdge(0, 1, 3) // s-A
	g.AddEdge(1, 2, 2) // A-B
	g.AddEdge(2, 5, 2) // B-t
	g.AddEdge(0, 4, 2) // s-D
	g.AddEdge(4, 5, 2) // D-t
	g.AddEdge(3, 5, 1) // C-t
	return &TOP1{G: g, S: 0, T: 5, N: 2, Lambda: 1, Switches: []int{1, 2, 3, 4}}
}

func TestFig4ILPIsPathBound(t *testing.T) {
	// The paper's Discussions point, executable: the ILP counts each
	// edge once, so it must take the path s,A,B,t of cost 7, while the
	// true optimal 2-stroll is the walk of cost 6.
	p := fig4()
	a, cost, err := p.SolveBruteForce()
	if err != nil {
		t.Fatal(err)
	}
	if cost != 7 {
		t.Fatalf("ILP optimum = %v, want 7 (path s,A,B,t)", cost)
	}
	if !a.X[1] || !a.X[2] {
		t.Fatalf("ILP should select switches A and B, got %v", a.X)
	}
	// Walk-based optimum is 6 — strictly better than the ILP's path.
	apsp := graph.AllPairs(p.G)
	keep := []int{0, 1, 2, 3, 4, 5}
	res, err := stroll.Exhaustive(stroll.Instance{Cost: apsp.CostMatrix(keep), S: 0, T: 5, N: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 6 {
		t.Fatalf("stroll optimum = %v, want 6", res.Cost)
	}
	if cost <= res.Cost {
		t.Fatalf("expected ILP %v > walk optimum %v", cost, res.Cost)
	}
}

func TestFeasibleChecksConstraints(t *testing.T) {
	p := fig4()
	edges := p.G.Edges()
	idx := func(u, v int) int {
		for i, e := range edges {
			if (e.U == u && e.V == v) || (e.U == v && e.V == u) {
				return i
			}
		}
		t.Fatalf("edge (%d,%d) missing", u, v)
		return -1
	}
	// The s,A,B,t path with x_A = x_B = 1 is feasible.
	good := Assignment{
		X: map[int]bool{1: true, 2: true},
		Y: map[int]bool{idx(0, 1): true, idx(1, 2): true, idx(2, 5): true},
	}
	if err := p.Feasible(good); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	// Dropping an edge breaks connectivity (constraint 5).
	disconnected := Assignment{
		X: good.X,
		Y: map[int]bool{idx(0, 1): true, idx(1, 2): true},
	}
	if err := p.Feasible(disconnected); err == nil {
		t.Fatal("disconnected selection accepted")
	}
	// Selecting a leaf-ish switch violates constraint 6: C has one
	// selected incident edge only.
	leafy := Assignment{
		X: map[int]bool{3: true, 4: true},
		Y: map[int]bool{idx(0, 4): true, idx(4, 5): true, idx(3, 5): true},
	}
	if err := p.Feasible(leafy); err == nil {
		t.Fatal("degree-1 selected switch accepted (constraint 6)")
	}
	// Too few selected switches (constraint 7).
	short := Assignment{
		X: map[int]bool{1: true},
		Y: good.Y,
	}
	if err := p.Feasible(short); err == nil {
		t.Fatal("n unmet accepted (constraint 7)")
	}
}

func TestObjective(t *testing.T) {
	p := fig4()
	p.Lambda = 3
	edges := p.G.Edges()
	y := map[int]bool{}
	want := 0.0
	for i, e := range edges {
		if e.Weight == 2 {
			y[i] = true
			want += 2
		}
	}
	got := p.Objective(Assignment{Y: y})
	if math.Abs(got-3*want) > 1e-9 {
		t.Fatalf("objective %v, want %v", got, 3*want)
	}
}

func TestILPMatchesStrollOnPathOptimalInstances(t *testing.T) {
	// On random small graphs, the ILP optimum is always ≥ the walk-based
	// stroll optimum, with equality whenever the optimal stroll happens
	// to be a simple path in the original graph.
	rng := rand.New(rand.NewSource(3))
	matched := 0
	for trial := 0; trial < 12; trial++ {
		nv := 5 + rng.Intn(2)
		g := graph.New(nv)
		for v := 1; v < nv; v++ {
			g.AddEdge(rng.Intn(v), v, 1+float64(rng.Intn(9)))
		}
		for i := 0; i < 2; i++ {
			u, v := rng.Intn(nv), rng.Intn(nv)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v, 1+float64(rng.Intn(9)))
			}
		}
		var switches []int
		for v := 1; v < nv-1; v++ {
			switches = append(switches, v)
		}
		n := 1 + rng.Intn(2)
		p := &TOP1{G: g, S: 0, T: nv - 1, N: n, Lambda: 1, Switches: switches}
		_, ilpCost, err := p.SolveBruteForce()
		if err != nil {
			continue // infeasible tiny instance
		}
		apsp := graph.AllPairs(g)
		keep := make([]int, nv)
		for i := range keep {
			keep[i] = i
		}
		res, err := stroll.Exhaustive(stroll.Instance{Cost: apsp.CostMatrix(keep), S: 0, T: nv - 1, N: n}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ilpCost < res.Cost-1e-9 {
			t.Fatalf("trial %d: ILP %v below walk optimum %v", trial, ilpCost, res.Cost)
		}
		if math.Abs(ilpCost-res.Cost) < 1e-9 {
			matched++
		}
	}
	if matched == 0 {
		t.Fatal("ILP never matched the stroll optimum — path-optimal instances should be common")
	}
}

func TestValidateErrors(t *testing.T) {
	p := fig4()
	p.S = p.T
	if err := p.Validate(); err == nil {
		t.Fatal("s==t accepted")
	}
	p = fig4()
	p.N = 9
	if err := p.Validate(); err == nil {
		t.Fatal("oversized n accepted")
	}
	p = fig4()
	p.Lambda = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative λ accepted")
	}
	p = fig4()
	p.Switches = append(p.Switches, p.S)
	if err := p.Validate(); err == nil {
		t.Fatal("terminal-as-switch accepted")
	}
	if err := (&TOP1{}).Validate(); err == nil {
		t.Fatal("nil graph accepted")
	}
	// Over-budget edge count.
	big := graph.New(30)
	for i := 0; i < 29; i++ {
		big.AddEdge(i, i+1, 1)
	}
	p = &TOP1{G: big, S: 0, T: 29, N: 1, Lambda: 1, Switches: []int{1}}
	if err := p.Validate(); err == nil {
		t.Fatal("oversized instance accepted")
	}
}

func TestInfeasibleInstance(t *testing.T) {
	// Two components: s-t unreachable.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	p := &TOP1{G: g, S: 0, T: 3, N: 0, Lambda: 1, Switches: []int{1, 2}}
	if _, _, err := p.SolveBruteForce(); err == nil {
		t.Fatal("disconnected instance solved")
	}
}

func TestFromPPDCAgainstStroll(t *testing.T) {
	ft := topology.MustFatTree(2, nil)
	d := model.MustNew(ft, model.Options{})
	f := model.VMPair{Src: ft.Hosts[0], Dst: ft.Hosts[1], Rate: 2}
	for n := 0; n <= 3; n++ {
		p, keep, err := FromPPDC(d, f, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(keep) != 7 || p.G.Size() != 6 {
			// k=2 fat tree: 2 core-agg + 2 agg-edge + 2 host links.
			t.Fatalf("induced graph: %d vertices, %d edges", len(keep), p.G.Size())
		}
		_, ilpCost, err := p.SolveBruteForce()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		apsp := graph.AllPairs(p.G)
		all := make([]int, p.G.Order())
		for i := range all {
			all[i] = i
		}
		res, err := stroll.Exhaustive(stroll.Instance{
			Cost: apsp.CostMatrix(all), S: 0, T: 1, N: n,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		walkCost := f.Rate * res.Cost
		if ilpCost < walkCost-1e-9 {
			t.Fatalf("n=%d: ILP %v below walk optimum %v", n, ilpCost, walkCost)
		}
	}
}

func TestFromPPDCErrors(t *testing.T) {
	ft := topology.MustFatTree(2, nil)
	d := model.MustNew(ft, model.Options{})
	if _, _, err := FromPPDC(nil, model.VMPair{}, 1); err == nil {
		t.Fatal("nil PPDC accepted")
	}
	h := ft.Hosts[0]
	if _, _, err := FromPPDC(d, model.VMPair{Src: h, Dst: h, Rate: 1}, 1); err == nil {
		t.Fatal("tour accepted")
	}
	// Larger fabrics exceed the brute-force budget by design.
	big := model.MustNew(topology.MustFatTree(4, nil), model.Options{})
	if _, _, err := FromPPDC(big, model.VMPair{Src: big.Topo.Hosts[0], Dst: big.Topo.Hosts[1], Rate: 1}, 1); err == nil {
		t.Fatal("over-budget instance accepted")
	}
}
