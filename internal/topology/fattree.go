package topology

import "fmt"

// FatTree builds a k-ary fat tree (Al-Fares et al., SIGCOMM 2008), the
// paper's evaluation topology:
//
//   - (k/2)^2 core switches;
//   - k pods, each with k/2 aggregation and k/2 edge switches;
//   - each edge switch serves k/2 hosts (one rack);
//   - each edge switch connects to every aggregation switch in its pod;
//   - aggregation switch j of a pod connects to core switches
//     j*(k/2) .. j*(k/2)+k/2-1.
//
// Totals: k^3/4 hosts and 5k^2/4 switches. The paper's scales: k=8 gives
// 128 hosts / 80 switches; k=16 gives 1024 hosts / 320 switches.
//
// weight is invoked once per link in a fixed order, so a seeded WeightFunc
// yields a reproducible weighted topology.
func FatTree(k int, weight WeightFunc) (*Topology, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat-tree arity k must be even and >= 2, got %d", k)
	}
	if weight == nil {
		weight = unitWeights()
	}
	half := k / 2
	numCore := half * half
	numAggPerPod := half
	numEdgePerPod := half
	numHostsPerEdge := half
	numSwitches := numCore + k*(numAggPerPod+numEdgePerPod)
	numHosts := k * numEdgePerPod * numHostsPerEdge

	t := newBase(fmt.Sprintf("fat-tree(k=%d)", k), numSwitches+numHosts)

	// Vertex layout: [core | pod0 agg | pod0 edge | pod1 agg | ... | hosts].
	core := make([]int, numCore)
	for i := range core {
		core[i] = i
		t.addSwitch(i, fmt.Sprintf("c%d", i+1))
	}
	agg := make([][]int, k)
	edge := make([][]int, k)
	v := numCore
	for p := 0; p < k; p++ {
		agg[p] = make([]int, numAggPerPod)
		for j := 0; j < numAggPerPod; j++ {
			agg[p][j] = v
			t.addSwitch(v, fmt.Sprintf("a%d.%d", p+1, j+1))
			v++
		}
		edge[p] = make([]int, numEdgePerPod)
		for j := 0; j < numEdgePerPod; j++ {
			edge[p][j] = v
			t.addSwitch(v, fmt.Sprintf("e%d.%d", p+1, j+1))
			v++
		}
	}
	hostID := 0
	for p := 0; p < k; p++ {
		for j := 0; j < numEdgePerPod; j++ {
			rack := make([]int, 0, numHostsPerEdge)
			for h := 0; h < numHostsPerEdge; h++ {
				t.addHost(v, fmt.Sprintf("h%d", hostID+1))
				rack = append(rack, v)
				hostID++
				v++
			}
			t.Racks = append(t.Racks, rack)
		}
	}

	// Links, in a deterministic order: core-agg, agg-edge, edge-host.
	for p := 0; p < k; p++ {
		for j := 0; j < numAggPerPod; j++ {
			for c := 0; c < half; c++ {
				t.Graph.AddEdge(agg[p][j], core[j*half+c], weight())
			}
		}
	}
	for p := 0; p < k; p++ {
		for j := 0; j < numAggPerPod; j++ {
			for e := 0; e < numEdgePerPod; e++ {
				t.Graph.AddEdge(agg[p][j], edge[p][e], weight())
			}
		}
	}
	rackIdx := 0
	for p := 0; p < k; p++ {
		for j := 0; j < numEdgePerPod; j++ {
			for _, h := range t.Racks[rackIdx] {
				t.Graph.AddEdge(edge[p][j], h, weight())
			}
			rackIdx++
		}
	}
	return t, nil
}

// MustFatTree is FatTree but panics on an invalid arity. Convenient in
// tests and examples where k is a compile-time constant.
func MustFatTree(k int, weight WeightFunc) *Topology {
	t, err := FatTree(k, weight)
	if err != nil {
		panic(err)
	}
	return t
}
