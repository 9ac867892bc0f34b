// Package topology builds data-center network topologies for PPDC
// experiments: k-ary fat trees (the paper's evaluation substrate), the
// linear PPDC of the paper's Fig. 1, and a few auxiliary shapes (ring,
// star, random mesh) for testing generality — the paper notes its problems
// and solutions apply to any data-center topology.
package topology

import (
	"fmt"
	"math/rand"

	"vnfopt/internal/graph"
)

// NodeKind distinguishes hosts from switches in a topology.
type NodeKind int

const (
	// Host is a server that stores VMs.
	Host NodeKind = iota
	// Switch is a network switch whose attached server can run one VNF
	// (or several, when colocation is enabled in the model).
	Switch
)

// Topology is a PPDC network: a weighted undirected graph whose vertices are
// partitioned into hosts V_h and switches V_s.
type Topology struct {
	// Name describes the generator and parameters, e.g. "fat-tree(k=8)".
	Name string
	// Graph is the underlying network graph.
	Graph *graph.Graph
	// Hosts lists host vertex IDs (V_h).
	Hosts []int
	// Switches lists switch vertex IDs (V_s).
	Switches []int
	// Kind maps every vertex to Host or Switch.
	Kind []NodeKind
	// Labels holds human-readable vertex names (h1..., s1...).
	Labels []string
	// Racks groups hosts by their edge (top-of-rack) switch: Racks[i] is
	// the list of hosts under rack i. Used for the paper's 80% intra-rack
	// VM pair placement. May be empty for topologies without rack
	// structure.
	Racks [][]int
}

// WeightFunc assigns a weight to the next edge created by a generator.
// Generators call it once per physical link in a deterministic order.
type WeightFunc func() float64

// unitWeights returns a WeightFunc assigning every link cost 1 (the paper's
// unweighted, hop-count PPDCs).
func unitWeights() WeightFunc { return func() float64 { return 1 } }

// uniformDelay returns a WeightFunc drawing link delays uniformly from
// [mean-halfWidth, mean+halfWidth]. The paper's weighted experiments follow
// Greedy [34]: uniform link delays with mean 1.5 ms and variation 0.5 ms.
func uniformDelay(mean, halfWidth float64, rng *rand.Rand) WeightFunc {
	if halfWidth < 0 || mean-halfWidth < 0 {
		panic(fmt.Sprintf("topology: invalid delay distribution mean=%v halfWidth=%v", mean, halfWidth))
	}
	return func() float64 { return mean - halfWidth + 2*halfWidth*rng.Float64() }
}

// PaperDelay is the weighted-PPDC link delay distribution used in the
// paper's Fig. 10 (mean 1.5, half-width 0.5).
func PaperDelay(rng *rand.Rand) WeightFunc { return uniformDelay(1.5, 0.5, rng) }

// NumHosts returns |V_h|.
func (t *Topology) NumHosts() int { return len(t.Hosts) }

// NumSwitches returns |V_s|.
func (t *Topology) NumSwitches() int { return len(t.Switches) }

// Validate checks structural invariants: connectedness, the host/switch
// partition covering all vertices, and hosts attaching only to switches.
func (t *Topology) Validate() error {
	n := t.Graph.Order()
	if len(t.Kind) != n || len(t.Labels) != n {
		return fmt.Errorf("topology %s: kind/label arrays do not cover %d vertices", t.Name, n)
	}
	if len(t.Hosts)+len(t.Switches) != n {
		return fmt.Errorf("topology %s: partition %d hosts + %d switches != %d vertices",
			t.Name, len(t.Hosts), len(t.Switches), n)
	}
	if !t.Graph.Connected() {
		return fmt.Errorf("topology %s: not connected", t.Name)
	}
	for _, h := range t.Hosts {
		if t.Kind[h] != Host {
			return fmt.Errorf("topology %s: vertex %d listed as host but marked %v", t.Name, h, t.Kind[h])
		}
		for _, e := range t.Graph.Neighbors(h) {
			if t.Kind[e.To] != Switch {
				return fmt.Errorf("topology %s: host %d adjacent to non-switch %d", t.Name, h, e.To)
			}
		}
	}
	for _, s := range t.Switches {
		if t.Kind[s] != Switch {
			return fmt.Errorf("topology %s: vertex %d listed as switch but marked %v", t.Name, s, t.Kind[s])
		}
	}
	return nil
}

// newBase allocates a topology shell with n vertices.
func newBase(name string, n int) *Topology {
	return &Topology{
		Name:   name,
		Graph:  graph.New(n),
		Kind:   make([]NodeKind, n),
		Labels: make([]string, n),
	}
}

func (t *Topology) addHost(v int, label string) {
	t.Kind[v] = Host
	t.Labels[v] = label
	t.Hosts = append(t.Hosts, v)
}

func (t *Topology) addSwitch(v int, label string) {
	t.Kind[v] = Switch
	t.Labels[v] = label
	t.Switches = append(t.Switches, v)
}
