package topology

import (
	"math/rand"
	"testing"

	"vnfopt/internal/graph"
)

func TestFatTreeSizes(t *testing.T) {
	cases := []struct {
		k              int
		hosts          int
		switches       int
		racks          int
		hostsPerRack   int
		edgesPerSwitch int // every switch in a fat tree has exactly k links
	}{
		{2, 2, 5, 2, 1, 2},
		{4, 16, 20, 8, 2, 4},
		{8, 128, 80, 32, 4, 8},
		{16, 1024, 320, 128, 8, 16},
		{32, 8192, 1280, 512, 16, 32}, // the BenchmarkWeightEvent big-fabric fixture
	}
	for _, tc := range cases {
		ft, err := FatTree(tc.k, nil)
		if err != nil {
			t.Fatalf("k=%d: %v", tc.k, err)
		}
		if got := ft.NumHosts(); got != tc.hosts {
			t.Errorf("k=%d hosts = %d, want %d", tc.k, got, tc.hosts)
		}
		if got := ft.NumSwitches(); got != tc.switches {
			t.Errorf("k=%d switches = %d, want %d", tc.k, got, tc.switches)
		}
		if got := len(ft.Racks); got != tc.racks {
			t.Errorf("k=%d racks = %d, want %d", tc.k, got, tc.racks)
		}
		for i, r := range ft.Racks {
			if len(r) != tc.hostsPerRack {
				t.Errorf("k=%d rack %d has %d hosts, want %d", tc.k, i, len(r), tc.hostsPerRack)
			}
		}
		if err := ft.Validate(); err != nil {
			t.Errorf("k=%d validate: %v", tc.k, err)
		}
		// Every switch uses all k ports; hosts have exactly one uplink.
		for _, s := range ft.Switches {
			if d := len(ft.Graph.Neighbors(s)); d != tc.edgesPerSwitch {
				t.Errorf("k=%d switch %s degree = %d, want %d", tc.k, ft.Labels[s], d, tc.edgesPerSwitch)
			}
		}
		for _, h := range ft.Hosts {
			if d := len(ft.Graph.Neighbors(h)); d != 1 {
				t.Errorf("k=%d host %s degree = %d, want 1", tc.k, ft.Labels[h], d)
			}
		}
	}
}

func TestFatTreeInvalidArity(t *testing.T) {
	for _, k := range []int{-2, 0, 1, 3, 7} {
		if _, err := FatTree(k, nil); err == nil {
			t.Errorf("k=%d: expected error", k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustFatTree should panic on odd k")
		}
	}()
	MustFatTree(3, nil)
}

func TestFatTreeHopDistances(t *testing.T) {
	// Classic fat-tree distances in hops:
	// same rack: 2 (h-e-h), same pod: 4 (h-e-a-e-h), cross pod: 6.
	ft := MustFatTree(4, nil)
	apsp := graph.AllPairs(ft.Graph)
	sameRack := ft.Racks[0]
	if c := apsp.Cost(sameRack[0], sameRack[1]); c != 2 {
		t.Errorf("same-rack cost = %v, want 2", c)
	}
	// Racks 0 and 1 are in pod 0; racks 0 and 2 are in different pods.
	if c := apsp.Cost(ft.Racks[0][0], ft.Racks[1][0]); c != 4 {
		t.Errorf("same-pod cost = %v, want 4", c)
	}
	if c := apsp.Cost(ft.Racks[0][0], ft.Racks[2][0]); c != 6 {
		t.Errorf("cross-pod cost = %v, want 6", c)
	}
}

func TestFatTreeK2MatchesFig3(t *testing.T) {
	// The paper's Fig. 3 k=2 PPDC "is indeed the same linear PPDC in
	// Fig. 1": h1 and h2 at distance 2 from their edge switches via a
	// 5-switch structure (1 core + 2 agg + 2 edge).
	ft := MustFatTree(2, nil)
	if ft.NumSwitches() != 5 || ft.NumHosts() != 2 {
		t.Fatalf("k=2: %d switches, %d hosts", ft.NumSwitches(), ft.NumHosts())
	}
	apsp := graph.AllPairs(ft.Graph)
	if c := apsp.Cost(ft.Hosts[0], ft.Hosts[1]); c != 6 {
		// h - edge - agg - core - agg - edge - h
		t.Fatalf("host-host distance = %v, want 6", c)
	}
}

func TestLinear(t *testing.T) {
	lin, err := Linear(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lin.Validate(); err != nil {
		t.Fatal(err)
	}
	if lin.NumHosts() != 2 || lin.NumSwitches() != 5 {
		t.Fatalf("linear: %d hosts, %d switches", lin.NumHosts(), lin.NumSwitches())
	}
	apsp := graph.AllPairs(lin.Graph)
	// Fig. 1: h1 to h2 spans all 5 switches: 6 edges.
	if c := apsp.Cost(lin.Hosts[0], lin.Hosts[1]); c != 6 {
		t.Fatalf("h1-h2 = %v, want 6", c)
	}
	if _, err := Linear(0, nil); err == nil {
		t.Fatal("expected error for 0 switches")
	}
}

func TestRing(t *testing.T) {
	r, err := Ring(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.NumHosts() != 6 || r.NumSwitches() != 6 {
		t.Fatalf("ring: %d hosts %d switches", r.NumHosts(), r.NumSwitches())
	}
	apsp := graph.AllPairs(r.Graph)
	// Opposite switches on a 6-ring are 3 apart.
	if c := apsp.Cost(r.Switches[0], r.Switches[3]); c != 3 {
		t.Fatalf("opposite switches = %v, want 3", c)
	}
	if _, err := Ring(2, nil); err == nil {
		t.Fatal("expected error for tiny ring")
	}
}

func TestStar(t *testing.T) {
	s, err := Star(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	apsp := graph.AllPairs(s.Graph)
	// Leaf switch to leaf switch always via hub: 2 hops.
	if c := apsp.Cost(s.Switches[1], s.Switches[2]); c != 2 {
		t.Fatalf("leaf-leaf = %v, want 2", c)
	}
	if _, err := Star(0, nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestRandomMesh(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, err := RandomMesh(12, 8, 6, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumHosts() != 8 || m.NumSwitches() != 12 {
		t.Fatalf("mesh: %d hosts %d switches", m.NumHosts(), m.NumSwitches())
	}
	if _, err := RandomMesh(5, 5, 0, nil, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
	if _, err := RandomMesh(-1, 5, 0, nil, rng); err == nil {
		t.Fatal("expected error for negative switches")
	}
}

func TestRandomMeshDeterministic(t *testing.T) {
	a, _ := RandomMesh(10, 6, 5, nil, rand.New(rand.NewSource(7)))
	b, _ := RandomMesh(10, 6, 5, nil, rand.New(rand.NewSource(7)))
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestUniformDelayRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := uniformDelay(1.5, 0.5, rng)
	for i := 0; i < 1000; i++ {
		d := w()
		if d < 1.0 || d > 2.0 {
			t.Fatalf("delay %v outside [1,2]", d)
		}
	}
}

func TestUniformDelayPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative support")
		}
	}()
	uniformDelay(0.2, 0.5, rand.New(rand.NewSource(1)))
}

func TestPaperDelayWeightedFatTree(t *testing.T) {
	ft := MustFatTree(4, PaperDelay(rand.New(rand.NewSource(3))))
	for _, e := range ft.Graph.Edges() {
		if e.Weight < 1.0 || e.Weight > 2.0 {
			t.Fatalf("weighted fat-tree link %v outside [1,2]", e.Weight)
		}
	}
	if err := ft.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ft := MustFatTree(2, nil)
	ft.Kind[ft.Hosts[0]] = Switch
	if err := ft.Validate(); err == nil {
		t.Fatal("expected validation failure after corrupting Kind")
	}
}

func TestValidateCatchesPartitionGap(t *testing.T) {
	ft := MustFatTree(2, nil)
	ft.Hosts = ft.Hosts[:len(ft.Hosts)-1]
	if err := ft.Validate(); err == nil {
		t.Fatal("expected partition-size failure")
	}
}
