// Package model defines the PPDC system model of the paper: the network
// (hosts, switches, shortest-path cost oracle), VM flows with traffic
// rates, service function chains, VNF placements and migrations, and the
// paper's three cost functions C_a (Eq. 1), C_b, and C_t (Eq. 8).
package model

import (
	"fmt"
	"math"

	"vnfopt/internal/graph"
	"vnfopt/internal/topology"
)

// Options tunes model-level behaviour.
type Options struct {
	// AllowColocation permits any number of VNFs of the SFC on the same
	// switch. The paper assumes distinct switches (footnote 3);
	// colocation is the paper's stated future work and is implemented
	// here as an extension.
	AllowColocation bool
	// SwitchCapacity caps the VNFs per switch when positive, overriding
	// AllowColocation (footnote 3's motivation: the attached server "has
	// limited resources thus can install a limited number of VNFs").
	// Zero means the default: 1 without AllowColocation, unlimited with.
	SwitchCapacity int
}

// CapFits reports whether one more VNF fits on switch s given the counts
// placed so far.
func (d *PPDC) CapFits(count map[int]int, s int) bool {
	c := d.SwitchCap()
	return c <= 0 || count[s] < c
}

// SwitchCap returns the effective per-switch VNF capacity: a positive
// bound, or -1 for unlimited.
func (d *PPDC) SwitchCap() int {
	if d.Opts.SwitchCapacity > 0 {
		return d.Opts.SwitchCapacity
	}
	if d.Opts.AllowColocation {
		return -1
	}
	return 1
}

// PPDC is a policy-preserving data center: a topology plus the cached
// all-pairs shortest-path cost oracle c(u,v).
type PPDC struct {
	Topo *topology.Topology
	// APSP caches c(u,v) for every vertex pair.
	APSP *graph.APSP
	// Opts holds model options.
	Opts Options
}

// New builds a PPDC from a topology and its APSP cache, built as read.
func New(t *topology.Topology, opts Options) (*PPDC, error) {
	if t == nil {
		return nil, fmt.Errorf("model: nil topology")
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	return &PPDC{Topo: t, APSP: graph.AllPairs(t.Graph), Opts: opts}, nil
}

// MustNew is New but panics on error; for tests and examples with
// known-good topologies.
func MustNew(t *topology.Topology, opts Options) *PPDC {
	d, err := New(t, opts)
	if err != nil {
		panic(err)
	}
	return d
}

// Cost returns the topology-aware cost c(u,v) between any two vertices.
func (d *PPDC) Cost(u, v int) float64 { return d.APSP.Cost(u, v) }

// Switches returns V_s.
func (d *PPDC) Switches() []int { return d.Topo.Switches }

// Hosts returns V_h.
func (d *PPDC) Hosts() []int { return d.Topo.Hosts }

// vertexSet is a membership mask over the PPDC's vertices, indexed by
// vertex id. The validators build one per call from Topo.Hosts or
// Topo.Switches — not from Topo.Kind, which a degraded serving model
// shares with its pristine fabric while its lists drop the dead.
type vertexSet []bool

func (d *PPDC) vertexSet(members []int) vertexSet {
	set := make(vertexSet, d.Topo.Graph.Order())
	for _, v := range members {
		set[v] = true
	}
	return set
}

// has reports membership; an id outside the graph is in no set.
func (s vertexSet) has(v int) bool { return v >= 0 && v < len(s) && s[v] }

// VMPair is one communicating VM flow (v_i, v'_i): a source host, a
// destination host, and the current traffic rate λ_i.
type VMPair struct {
	// Src and Dst are the host vertices s(v_i) and s(v'_i).
	Src, Dst int
	// Rate is λ_i ≥ 0: communication frequency or bandwidth demand.
	Rate float64
}

// Workload is the set P of VM flows. Rates mutate over time in dynamic
// PPDC simulations; the slice itself is the traffic-rate vector λ.
type Workload []VMPair

// TotalRate returns Λ = Σ_i λ_i, the coefficient every chain edge pays in
// C_a (each flow traverses the whole SFC once).
func (w Workload) TotalRate() float64 {
	s := 0.0
	for _, p := range w {
		s += p.Rate
	}
	return s
}

// Rates extracts the traffic-rate vector.
func (w Workload) Rates() []float64 {
	out := make([]float64, len(w))
	for i, p := range w {
		out[i] = p.Rate
	}
	return out
}

// WithRates returns a copy of the workload with rates replaced. It panics
// if the lengths differ, which indicates a simulation bug.
func (w Workload) WithRates(rates []float64) Workload {
	if len(rates) != len(w) {
		panic(fmt.Sprintf("model: %d rates for %d flows", len(rates), len(w)))
	}
	out := make(Workload, len(w))
	for i, p := range w {
		p.Rate = rates[i]
		out[i] = p
	}
	return out
}

// Validate checks that every flow endpoint is a host of the PPDC and every
// rate is a finite non-negative number.
func (w Workload) Validate(d *PPDC) error {
	isHost := d.vertexSet(d.Topo.Hosts)
	for i, p := range w {
		if !isHost.has(p.Src) || !isHost.has(p.Dst) {
			return fmt.Errorf("model: flow %d endpoints (%d,%d) are not hosts", i, p.Src, p.Dst)
		}
		if p.Rate < 0 || math.IsNaN(p.Rate) || math.IsInf(p.Rate, 0) {
			return fmt.Errorf("model: flow %d has invalid rate %v", i, p.Rate)
		}
	}
	return nil
}

// SFC is a service function chain (f_1, ..., f_n): VM traffic must traverse
// the VNFs in this order. Only the length matters to the optimization; the
// names document intent (e.g. firewall, IDS, proxy).
type SFC struct {
	Names []string
}

// NewSFC builds an SFC of n generic VNFs f1..fn.
func NewSFC(n int) SFC {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i+1)
	}
	return SFC{Names: names}
}

// Len returns n, the number of VNFs.
func (c SFC) Len() int { return len(c.Names) }

// Placement is a VNF placement function p: Placement[j] is the switch
// hosting f_{j+1}. A Migration target m uses the same representation.
type Placement []int

// Clone returns a copy of the placement.
func (p Placement) Clone() Placement { return append(Placement(nil), p...) }

// Equal reports whether two placements are identical.
func (p Placement) Equal(q Placement) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Validate checks that the placement has one switch per VNF, every entry
// is a switch of d, and the per-switch VNF count respects the effective
// capacity — paper footnote 3 (1 per switch), generalized by the
// colocation/capacity extension.
func (p Placement) Validate(d *PPDC, sfc SFC) error {
	if len(p) != sfc.Len() {
		return fmt.Errorf("model: placement covers %d VNFs, SFC has %d", len(p), sfc.Len())
	}
	isSwitch := d.vertexSet(d.Topo.Switches)
	cap := d.SwitchCap()
	count := make(map[int]int, len(p))
	for j, s := range p {
		if !isSwitch.has(s) {
			return fmt.Errorf("model: placement of %s at vertex %d, which is not a switch", sfc.Names[j], s)
		}
		count[s]++
		if cap > 0 && count[s] > cap {
			return fmt.Errorf("model: switch %d hosts %d VNFs, capacity %d (%s overflows)",
				s, count[s], cap, sfc.Names[j])
		}
	}
	return nil
}
