package topology

import (
	"math/rand"
	"testing"

	"vnfopt/internal/graph"
)

func TestLeafSpineStructure(t *testing.T) {
	ls, err := LeafSpine(4, 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Validate(); err != nil {
		t.Fatal(err)
	}
	if ls.NumSwitches() != 6 || ls.NumHosts() != 12 || len(ls.Racks) != 4 {
		t.Fatalf("dims: %d switches, %d hosts, %d racks", ls.NumSwitches(), ls.NumHosts(), len(ls.Racks))
	}
	apsp := graph.AllPairs(ls.Graph)
	// Same rack: 2 hops; cross rack: 4 hops (leaf-spine-leaf + host legs).
	if c := apsp.Cost(ls.Racks[0][0], ls.Racks[0][1]); c != 2 {
		t.Fatalf("same-rack cost %v", c)
	}
	if c := apsp.Cost(ls.Racks[0][0], ls.Racks[3][0]); c != 4 {
		t.Fatalf("cross-rack cost %v", c)
	}
	// Every leaf connects to every spine.
	for l := 0; l < 4; l++ {
		for s := 0; s < 2; s++ {
			if !ls.Graph.HasEdge(2+l, s) {
				t.Fatalf("leaf %d missing spine %d", l, s)
			}
		}
	}
}

func TestLeafSpineErrors(t *testing.T) {
	for _, dims := range [][3]int{{0, 2, 2}, {2, 0, 2}, {2, 2, 0}} {
		if _, err := LeafSpine(dims[0], dims[1], dims[2], nil); err == nil {
			t.Errorf("dims %v accepted", dims)
		}
	}
}

func TestJellyfishStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	jf, err := Jellyfish(20, 4, 2, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := jf.Validate(); err != nil {
		t.Fatal(err)
	}
	if jf.NumSwitches() != 20 || jf.NumHosts() != 40 {
		t.Fatalf("dims: %d/%d", jf.NumSwitches(), jf.NumHosts())
	}
	// Switch-to-switch degree stays within the target (host links extra).
	for _, s := range jf.Switches {
		swDeg := 0
		for _, e := range jf.Graph.Neighbors(s) {
			if jf.Kind[e.To] == Switch {
				swDeg++
			}
		}
		if swDeg > 4 {
			t.Fatalf("switch %d degree %d exceeds 4", s, swDeg)
		}
		if swDeg < 2 {
			t.Fatalf("switch %d degree %d below ring minimum", s, swDeg)
		}
	}
}

// TestJellyfish10kFixture pins the 10k-switch benchmark fixture
// (BenchmarkWeightEvent's jellyfish_10k): same arguments, same seed —
// a connected 6-regular-ish fabric at the scale the weight-delta APSP
// path is sized for.
func TestJellyfish10kFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-switch generation in -short mode")
	}
	jf, err := Jellyfish(10000, 6, 0, nil, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	if err := jf.Validate(); err != nil {
		t.Fatal(err)
	}
	if jf.NumSwitches() != 10000 || jf.NumHosts() != 0 {
		t.Fatalf("dims: %d switches / %d hosts, want 10000/0", jf.NumSwitches(), jf.NumHosts())
	}
	for _, s := range jf.Switches {
		if d := len(jf.Graph.Neighbors(s)); d < 2 || d > 6 {
			t.Fatalf("switch %d degree %d outside [2,6]", s, d)
		}
	}
}

func TestJellyfishDeterministic(t *testing.T) {
	a, _ := Jellyfish(15, 3, 1, nil, rand.New(rand.NewSource(9)))
	b, _ := Jellyfish(15, 3, 1, nil, rand.New(rand.NewSource(9)))
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestJellyfishErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Jellyfish(2, 2, 1, nil, rng); err == nil {
		t.Error("tiny jellyfish accepted")
	}
	if _, err := Jellyfish(10, 1, 1, nil, rng); err == nil {
		t.Error("degree 1 accepted")
	}
	if _, err := Jellyfish(10, 10, 1, nil, rng); err == nil {
		t.Error("degree ≥ switches accepted")
	}
	if _, err := Jellyfish(10, 3, 1, nil, nil); err == nil {
		t.Error("nil rng accepted")
	}
	// Hostless jellyfish is legal (pure switching fabric).
	jf, err := Jellyfish(10, 3, 0, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if jf.NumHosts() != 0 {
		t.Fatal("hosts appeared")
	}
}
