package model

import (
	"fmt"
	"math"
	"testing"

	"vnfopt/internal/topology"
)

// TestValidateRejectsEveryBadInput pins the validators' answer — the
// error text included — on each class of bad input: vertex ids outside
// the graph on either side (the membership mask is a slice indexed by
// vertex, so these must be range-checked, not looked up), a vertex of
// the wrong kind, a vertex a degraded serving model no longer lists (its
// Topo.Kind still says host/switch: the lists are the authority, as
// fault.View builds them), and every non-rate.
func TestValidateRejectsEveryBadInput(t *testing.T) {
	d := MustNew(topology.MustFatTree(4, nil), Options{})
	n := d.Topo.Graph.Order()
	h, h2, deadH := d.Topo.Hosts[1], d.Topo.Hosts[2], d.Topo.Hosts[0]
	s, s2, deadS := d.Topo.Switches[1], d.Topo.Switches[2], d.Topo.Switches[0]
	// A degraded serving model as fault.View assembles one: membership
	// lists without the dead, Kind and APSP indexing unchanged.
	topo := *d.Topo
	topo.Hosts, topo.Switches = d.Topo.Hosts[1:], d.Topo.Switches[1:]
	degraded := &PPDC{Topo: &topo, APSP: d.APSP, Opts: d.Opts}

	flows := []struct {
		name string
		d    *PPDC
		f    VMPair
		want string
	}{
		{"ok", d, VMPair{h, h2, 1}, ""},
		{"ok at rate zero", d, VMPair{h, h, 0}, ""},
		{"ok on degraded", degraded, VMPair{h, h2, 1}, ""},
		{"src -1", d, VMPair{-1, h, 1}, notHosts(-1, h)},
		{"dst -1", d, VMPair{h, -1, 1}, notHosts(h, -1)},
		{"src = Order()", d, VMPair{n, h, 1}, notHosts(n, h)},
		{"dst far out of range", d, VMPair{h, 1 << 40, 1}, notHosts(h, 1099511627776)},
		{"switch as src", d, VMPair{s, h, 1}, notHosts(s, h)},
		{"switch as dst", d, VMPair{h, s, 1}, notHosts(h, s)},
		{"dead host on degraded", degraded, VMPair{deadH, h, 1}, notHosts(deadH, h)},
		{"rate NaN", d, VMPair{h, h2, math.NaN()}, "model: flow 1 has invalid rate NaN"},
		{"rate -1", d, VMPair{h, h2, -1}, "model: flow 1 has invalid rate -1"},
		{"rate +Inf", d, VMPair{h, h2, math.Inf(1)}, "model: flow 1 has invalid rate +Inf"},
		{"rate -Inf", d, VMPair{h, h2, math.Inf(-1)}, "model: flow 1 has invalid rate -Inf"},
		{"bad endpoint reported before bad rate", d, VMPair{-1, h, -1}, notHosts(-1, h)},
	}
	for _, c := range flows {
		// The bad flow sits behind a good one: the index in the message
		// is the flow's.
		checkErr(t, "flow: "+c.name, Workload{{h, h2, 3}, c.f}.Validate(c.d), c.want)
	}

	sfc := NewSFC(2)
	placements := []struct {
		name string
		d    *PPDC
		p    Placement
		want string
	}{
		{"ok", d, Placement{s, s2}, ""},
		{"ok on degraded", degraded, Placement{s, s2}, ""},
		{"too short", d, Placement{s}, "model: placement covers 1 VNFs, SFC has 2"},
		{"vertex -1", d, Placement{s, -1}, notSwitch("f2", -1)},
		{"vertex = Order()", d, Placement{n, s}, notSwitch("f1", n)},
		{"host as switch", d, Placement{s, h}, notSwitch("f2", h)},
		{"dead switch on degraded", degraded, Placement{deadS, s}, notSwitch("f1", deadS)},
		{"one switch twice", d, Placement{s, s}, fmt.Sprintf("model: switch %d hosts 2 VNFs, capacity 1 (f2 overflows)", s)},
	}
	for _, c := range placements {
		checkErr(t, "placement: "+c.name, c.p.Validate(c.d, sfc), c.want)
	}
}

// notHosts and notSwitch are the validators' messages for flow 1 of the
// table's two-flow workload and for one VNF of its placement.
func notHosts(src, dst int) string {
	return fmt.Sprintf("model: flow 1 endpoints (%d,%d) are not hosts", src, dst)
}

func notSwitch(vnf string, v int) string {
	return fmt.Sprintf("model: placement of %s at vertex %d, which is not a switch", vnf, v)
}

func checkErr(t *testing.T, name string, err error, want string) {
	t.Helper()
	got := ""
	if err != nil {
		got = err.Error()
	}
	if got != want {
		t.Errorf("%s: error %q, want %q", name, got, want)
	}
}
