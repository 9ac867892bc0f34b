package topology

import (
	"fmt"
	"math/rand"
)

// LeafSpine builds a two-tier Clos fabric: every leaf (top-of-rack) switch
// connects to every spine switch, and each leaf serves hostsPerLeaf hosts.
// The dominant modern data-center fabric besides the fat tree; the paper
// notes its problems and solutions apply to any topology, and the tests
// exercise every solver here too.
func LeafSpine(leaves, spines, hostsPerLeaf int, weight WeightFunc) (*Topology, error) {
	if leaves < 1 || spines < 1 || hostsPerLeaf < 1 {
		return nil, fmt.Errorf("topology: leaf-spine needs positive dimensions, got %d/%d/%d",
			leaves, spines, hostsPerLeaf)
	}
	if weight == nil {
		weight = unitWeights()
	}
	numSwitches := leaves + spines
	numHosts := leaves * hostsPerLeaf
	t := newBase(fmt.Sprintf("leaf-spine(%dx%d,%d)", leaves, spines, hostsPerLeaf), numSwitches+numHosts)

	for s := 0; s < spines; s++ {
		t.addSwitch(s, fmt.Sprintf("sp%d", s+1))
	}
	for l := 0; l < leaves; l++ {
		t.addSwitch(spines+l, fmt.Sprintf("lf%d", l+1))
	}
	v := numSwitches
	for l := 0; l < leaves; l++ {
		rack := make([]int, 0, hostsPerLeaf)
		for h := 0; h < hostsPerLeaf; h++ {
			t.addHost(v, fmt.Sprintf("h%d", l*hostsPerLeaf+h+1))
			rack = append(rack, v)
			v++
		}
		t.Racks = append(t.Racks, rack)
	}

	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			t.Graph.AddEdge(spines+l, s, weight())
		}
	}
	for l := 0; l < leaves; l++ {
		for _, h := range t.Racks[l] {
			t.Graph.AddEdge(spines+l, h, weight())
		}
	}
	return t, nil
}

// Jellyfish builds the random-regular-graph fabric of Singla et al.
// (NSDI 2012): numSwitches switches each with switchDegree random
// switch-to-switch links (degree as close to regular as the random pairing
// allows, always connected), plus hostsPerSwitch hosts on every switch.
// A stress topology for the solvers: no hierarchy, many shortest-path
// ties.
func Jellyfish(numSwitches, switchDegree, hostsPerSwitch int, weight WeightFunc, rng *rand.Rand) (*Topology, error) {
	if numSwitches < 3 || switchDegree < 2 || hostsPerSwitch < 0 {
		return nil, fmt.Errorf("topology: jellyfish needs ≥3 switches and degree ≥2, got %d/%d",
			numSwitches, switchDegree)
	}
	if switchDegree >= numSwitches {
		return nil, fmt.Errorf("topology: jellyfish degree %d must be below switch count %d",
			switchDegree, numSwitches)
	}
	if rng == nil {
		return nil, fmt.Errorf("topology: Jellyfish requires a rand source")
	}
	if weight == nil {
		weight = unitWeights()
	}
	numHosts := numSwitches * hostsPerSwitch
	t := newBase(fmt.Sprintf("jellyfish(%d,d=%d)", numSwitches, switchDegree), numSwitches+numHosts)
	for i := 0; i < numSwitches; i++ {
		t.addSwitch(i, fmt.Sprintf("s%d", i+1))
	}
	v := numSwitches
	for i := 0; i < numSwitches; i++ {
		var rack []int
		for h := 0; h < hostsPerSwitch; h++ {
			t.addHost(v, fmt.Sprintf("h%d", i*hostsPerSwitch+h+1))
			rack = append(rack, v)
			v++
		}
		if len(rack) > 0 {
			t.Racks = append(t.Racks, rack)
		}
	}

	// Random ring first (guarantees connectivity), then random extra
	// links until the target degree is approached.
	perm := rng.Perm(numSwitches)
	deg := make([]int, numSwitches)
	addLink := func(a, b int) bool {
		if a == b || t.Graph.HasEdge(a, b) {
			return false
		}
		t.Graph.AddEdge(a, b, weight())
		deg[a]++
		deg[b]++
		return true
	}
	for i := 0; i < numSwitches; i++ {
		addLink(perm[i], perm[(i+1)%numSwitches])
	}
	// Random pairing among under-degree switches; bounded attempts keep
	// this terminating even when a perfect regular pairing is impossible.
	attempts := 20 * numSwitches * switchDegree
	for a := 0; a < attempts; a++ {
		i, j := rng.Intn(numSwitches), rng.Intn(numSwitches)
		if deg[i] < switchDegree && deg[j] < switchDegree {
			addLink(i, j)
		}
	}
	// Attach hosts.
	v = numSwitches
	for i := 0; i < numSwitches; i++ {
		for h := 0; h < hostsPerSwitch; h++ {
			t.Graph.AddEdge(i, v, weight())
			v++
		}
	}
	return t, nil
}
