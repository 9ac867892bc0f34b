package topology

import (
	"fmt"
	"math/rand"
)

// Linear builds the linear PPDC of the paper's Fig. 1: a chain of
// numSwitches switches with one host attached at each end:
//
//	h1 - s1 - s2 - ... - s_n - h2
//
// Both hosts form one logical rack each.
func Linear(numSwitches int, weight WeightFunc) (*Topology, error) {
	if numSwitches < 1 {
		return nil, fmt.Errorf("topology: linear needs >= 1 switch, got %d", numSwitches)
	}
	if weight == nil {
		weight = unitWeights()
	}
	t := newBase(fmt.Sprintf("linear(%d)", numSwitches), numSwitches+2)
	t.addHost(0, "h1")
	for i := 0; i < numSwitches; i++ {
		t.addSwitch(i+1, fmt.Sprintf("s%d", i+1))
	}
	t.addHost(numSwitches+1, "h2")
	t.Graph.AddEdge(0, 1, weight())
	for i := 1; i < numSwitches; i++ {
		t.Graph.AddEdge(i, i+1, weight())
	}
	t.Graph.AddEdge(numSwitches, numSwitches+1, weight())
	t.Racks = [][]int{{0}, {numSwitches + 1}}
	return t, nil
}

// Ring builds a cycle of numSwitches switches with one host hanging off
// each switch. Used to exercise the solvers on a non-tree topology where
// optimal strolls can be genuine walks.
func Ring(numSwitches int, weight WeightFunc) (*Topology, error) {
	if numSwitches < 3 {
		return nil, fmt.Errorf("topology: ring needs >= 3 switches, got %d", numSwitches)
	}
	if weight == nil {
		weight = unitWeights()
	}
	t := newBase(fmt.Sprintf("ring(%d)", numSwitches), 2*numSwitches)
	for i := 0; i < numSwitches; i++ {
		t.addSwitch(i, fmt.Sprintf("s%d", i+1))
	}
	for i := 0; i < numSwitches; i++ {
		t.addHost(numSwitches+i, fmt.Sprintf("h%d", i+1))
	}
	for i := 0; i < numSwitches; i++ {
		t.Graph.AddEdge(i, (i+1)%numSwitches, weight())
	}
	for i := 0; i < numSwitches; i++ {
		t.Graph.AddEdge(i, numSwitches+i, weight())
		t.Racks = append(t.Racks, []int{numSwitches + i})
	}
	return t, nil
}

// Star builds one hub switch with numLeaves leaf switches, each leaf
// serving one host. A degenerate topology useful for boundary tests: every
// switch-to-switch path runs through the hub.
func Star(numLeaves int, weight WeightFunc) (*Topology, error) {
	if numLeaves < 1 {
		return nil, fmt.Errorf("topology: star needs >= 1 leaf, got %d", numLeaves)
	}
	if weight == nil {
		weight = unitWeights()
	}
	t := newBase(fmt.Sprintf("star(%d)", numLeaves), 1+2*numLeaves)
	t.addSwitch(0, "hub")
	for i := 0; i < numLeaves; i++ {
		t.addSwitch(1+i, fmt.Sprintf("s%d", i+1))
	}
	for i := 0; i < numLeaves; i++ {
		h := 1 + numLeaves + i
		t.addHost(h, fmt.Sprintf("h%d", i+1))
	}
	for i := 0; i < numLeaves; i++ {
		t.Graph.AddEdge(0, 1+i, weight())
	}
	for i := 0; i < numLeaves; i++ {
		t.Graph.AddEdge(1+i, 1+numLeaves+i, weight())
		t.Racks = append(t.Racks, []int{1 + numLeaves + i})
	}
	return t, nil
}

// RandomMesh builds a connected random switch mesh: a random spanning tree
// over numSwitches switches plus extraEdges random switch-switch links, with
// numHosts hosts attached to uniformly random switches. Weights come from
// weight; randomness from rng (required).
func RandomMesh(numSwitches, numHosts, extraEdges int, weight WeightFunc, rng *rand.Rand) (*Topology, error) {
	if numSwitches < 1 || numHosts < 0 || extraEdges < 0 {
		return nil, fmt.Errorf("topology: invalid random mesh parameters (%d switches, %d hosts, %d extra)",
			numSwitches, numHosts, extraEdges)
	}
	if rng == nil {
		return nil, fmt.Errorf("topology: RandomMesh requires a rand source")
	}
	if weight == nil {
		weight = unitWeights()
	}
	t := newBase(fmt.Sprintf("mesh(%d,%d)", numSwitches, numHosts), numSwitches+numHosts)
	for i := 0; i < numSwitches; i++ {
		t.addSwitch(i, fmt.Sprintf("s%d", i+1))
	}
	for i := 0; i < numHosts; i++ {
		t.addHost(numSwitches+i, fmt.Sprintf("h%d", i+1))
	}
	for v := 1; v < numSwitches; v++ {
		t.Graph.AddEdge(rng.Intn(v), v, weight())
	}
	for i := 0; i < extraEdges; i++ {
		u, v := rng.Intn(numSwitches), rng.Intn(numSwitches)
		if u != v && !t.Graph.HasEdge(u, v) {
			t.Graph.AddEdge(u, v, weight())
		}
	}
	for i := 0; i < numHosts; i++ {
		s := rng.Intn(numSwitches)
		t.Graph.AddEdge(s, numSwitches+i, weight())
		t.Racks = append(t.Racks, []int{numSwitches + i})
	}
	return t, nil
}
