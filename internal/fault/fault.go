// Package fault models substrate failures in a PPDC: links, switches,
// and hosts going down and coming back. The paper's dynamics are limited
// to traffic-rate churn over an immutable G(V,E); this package supplies
// the missing half — a FaultSet applied to a pristine model.PPDC yields
// a degraded View with a rebuilt APSP oracle, reachability/partition
// detection, and an exact heal round-trip back to the pristine graph.
//
// The pristine PPDC is never mutated. A View is a derived, immutable
// snapshot: injecting or healing faults means building a new View from
// the pristine model and the new FaultSet. Healing every fault therefore
// reproduces the original APSP bit-for-bit (fuzzed in
// FuzzFaultHealRoundTrip); there is no incremental state to drift.
//
// Vertex IDs are stable across degradation: dead vertices stay in the
// graph as isolated vertices (all incident edges removed) so that
// placements, workloads, and APSP matrices keep their indexing. What
// changes is the topology's host/switch membership lists — a dead switch
// is removed from Topo.Switches, which is exactly what makes
// model.Placement.Validate reject placements that reference it.
package fault

import (
	"fmt"
	"math"
	"sort"

	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

// Kind discriminates what failed.
type Kind string

const (
	// Link is one physical link {U,V} (all parallel edges between the
	// endpoints fail together).
	Link Kind = "link"
	// Switch is a switch vertex; every incident link fails with it.
	Switch Kind = "switch"
	// Host is a host vertex; its flows become unservable while it is down.
	Host Kind = "host"
	// Degrade is a soft link failure: the link {U,V} stays up but every
	// parallel edge between the endpoints costs Factor× its pristine
	// weight — flapping optics, FEC retransmits, an oversubscribed WAN
	// segment. Unlike Link it never disconnects anything; it feeds the
	// incremental weight-delta APSP path instead of the removal path.
	Degrade Kind = "degrade"
)

// Fault is one failure. For Link and Degrade faults both U and V are set
// (order irrelevant); for Switch and Host faults the vertex is U and V
// must be zero or equal to U. Factor is the weight multiplier of a
// Degrade fault (> 0, with factor × the link's weight × the vertex count
// finite) and must be zero for every other kind.
type Fault struct {
	Kind   Kind    `json:"kind"`
	U      int     `json:"u"`
	V      int     `json:"v,omitempty"`
	Factor float64 `json:"factor,omitempty"`
}

// normalize returns the canonical form of f: link/degrade endpoints
// ordered U ≤ V, vertex faults with V mirrored to U.
func (f Fault) normalize() Fault {
	switch f.Kind {
	case Link, Degrade:
		if f.U > f.V {
			f.U, f.V = f.V, f.U
		}
	default:
		if f.V == 0 || f.V == f.U {
			f.V = f.U
		}
	}
	return f
}

// identity is the normalized fault with its magnitude erased: the key
// under which at most one fault may be active per FaultSet invariant.
// Two degrades of the same link with different factors share an
// identity — Add replaces, Remove and Active ignore the factor.
func (f Fault) identity() Fault {
	f = f.normalize()
	f.Factor = 0
	return f
}

// String renders the fault for events and error messages.
func (f Fault) String() string {
	f = f.normalize()
	switch f.Kind {
	case Link:
		return fmt.Sprintf("link{%d,%d}", f.U, f.V)
	case Degrade:
		return fmt.Sprintf("degrade{%d,%d}x%g", f.U, f.V, f.Factor)
	}
	return fmt.Sprintf("%s{%d}", f.Kind, f.U)
}

// Validate checks the fault against the pristine PPDC: the kind is
// known, the vertices exist, link endpoints share at least one edge, and
// switch/host faults name a vertex of the right kind.
func (f Fault) Validate(d *model.PPDC) error {
	n := d.Topo.Graph.Order()
	f = f.normalize()
	if f.Kind != Degrade && f.Factor != 0 {
		return fmt.Errorf("fault: factor %g is only valid on degrade faults, not %q", f.Factor, f.Kind)
	}
	switch f.Kind {
	case Link, Degrade:
		if f.U < 0 || f.V < 0 || f.U >= n || f.V >= n {
			return fmt.Errorf("fault: %s {%d,%d} out of range [0,%d)", f.Kind, f.U, f.V, n)
		}
		if !d.Topo.Graph.HasEdge(f.U, f.V) {
			return fmt.Errorf("fault: no link between %d and %d", f.U, f.V)
		}
		if f.Kind == Degrade {
			if !(f.Factor > 0) || math.IsInf(f.Factor, 0) {
				return fmt.Errorf("fault: degrade{%d,%d} factor %g must be finite and > 0 (use a link fault to take the link down)", f.U, f.V, f.Factor)
			}
			// The degraded reach stays finite: an overflowed arc would weigh
			// +Inf, a down link to a view, and a flow across it cost +Inf.
			for _, e := range d.Topo.Graph.Neighbors(f.U) {
				if e.To == f.V && math.IsInf(f.Factor*e.Weight*float64(n), 1) {
					return fmt.Errorf("fault: degrade{%d,%d} factor %g overflows: × weight %g × %d vertices is not finite", f.U, f.V, f.Factor, e.Weight, n)
				}
			}
		}
	case Switch:
		if f.U < 0 || f.U >= n {
			return fmt.Errorf("fault: switch %d out of range [0,%d)", f.U, n)
		}
		if d.Topo.Kind[f.U] != topology.Switch {
			return fmt.Errorf("fault: vertex %d is not a switch", f.U)
		}
	case Host:
		if f.U < 0 || f.U >= n {
			return fmt.Errorf("fault: host %d out of range [0,%d)", f.U, n)
		}
		if d.Topo.Kind[f.U] != topology.Host {
			return fmt.Errorf("fault: vertex %d is not a host", f.U)
		}
	default:
		return fmt.Errorf("fault: unknown kind %q (want link, degrade, switch, or host)", f.Kind)
	}
	return nil
}

// FaultSet is a normalized set of active faults. The zero value is the
// empty set (healthy fabric). A FaultSet is a value type: Add/Remove
// return updated copies, so Views built from earlier sets stay valid.
type FaultSet struct {
	set map[Fault]struct{}
}

// NewFaultSet builds a set from the given faults (normalized,
// deduplicated).
func NewFaultSet(faults ...Fault) FaultSet {
	var fs FaultSet
	for _, f := range faults {
		fs = fs.Add(f)
	}
	return fs
}

// Len returns the number of active faults.
func (fs FaultSet) Len() int { return len(fs.set) }

// Empty reports whether no fault is active.
func (fs FaultSet) Empty() bool { return len(fs.set) == 0 }

// Contains reports whether exactly f (normalized, factor included) is
// active. A degrade of the same link at a different factor does NOT
// match — the engine counts a factor change as a new injection because
// of this. Use Active for factor-insensitive membership (heal paths).
func (fs FaultSet) Contains(f Fault) bool {
	_, ok := fs.set[f.normalize()]
	return ok
}

// Active reports whether a fault with f's identity — kind and endpoints,
// ignoring any degrade factor — is active. Heal requests name the fault
// without having to echo the factor it was injected with.
func (fs FaultSet) Active(f Fault) bool {
	if _, ok := fs.set[f.normalize()]; ok {
		return true
	}
	if f.Kind != Degrade {
		return false
	}
	id := f.identity()
	for g := range fs.set {
		if g.identity() == id {
			return true
		}
	}
	return false
}

// Add returns a copy of the set with f injected. At most one fault per
// identity is active: injecting a degrade on a link that already carries
// one replaces its factor rather than stacking a second multiplier.
func (fs FaultSet) Add(f Fault) FaultSet {
	out := fs.clone()
	nf := f.normalize()
	if nf.Kind == Degrade {
		id := nf.identity()
		for g := range out.set {
			if g.Kind == Degrade && g.identity() == id {
				delete(out.set, g)
			}
		}
	}
	out.set[nf] = struct{}{}
	return out
}

// Remove returns a copy of the set with f healed (a no-op when f is not
// active). Matching is by identity: healing a degrade needs only the
// endpoints, not the injected factor.
func (fs FaultSet) Remove(f Fault) FaultSet {
	out := fs.clone()
	nf := f.normalize()
	if _, ok := out.set[nf]; ok {
		delete(out.set, nf)
		return out
	}
	if nf.Kind == Degrade {
		id := nf.identity()
		for g := range out.set {
			if g.Kind == Degrade && g.identity() == id {
				delete(out.set, g)
			}
		}
	}
	return out
}

func (fs FaultSet) clone() FaultSet {
	set := make(map[Fault]struct{}, len(fs.set)+1)
	for f := range fs.set {
		set[f] = struct{}{}
	}
	return FaultSet{set: set}
}

// Faults lists the active faults in a deterministic order (kind, then
// vertices).
func (fs FaultSet) Faults() []Fault {
	out := make([]Fault, 0, len(fs.set))
	for f := range fs.set {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// delta lists the faults active in exactly one of fs and base, factors
// included: a degrade whose factor changed is listed at both.
func (fs FaultSet) delta(base FaultSet) (out []Fault) {
	for f := range fs.set {
		if _, ok := base.set[f]; !ok {
			out = append(out, f)
		}
	}
	for f := range base.set {
		if _, ok := fs.set[f]; !ok {
			out = append(out, f)
		}
	}
	return out
}

// Validate checks every fault in the set against the pristine PPDC.
func (fs FaultSet) Validate(d *model.PPDC) error {
	for _, f := range fs.Faults() {
		if err := f.Validate(d); err != nil {
			return err
		}
	}
	return nil
}
