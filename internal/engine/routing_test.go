package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"vnfopt/internal/fault"
	"vnfopt/internal/model"
	"vnfopt/internal/obs"
	"vnfopt/internal/sfcroute"
	"vnfopt/internal/topology"
)

func routingScenario(t *testing.T) (*model.PPDC, model.SFC, model.Workload) {
	t.Helper()
	d := model.MustNew(topology.MustFatTree(4, nil), model.Options{})
	hosts := d.Hosts()
	w := model.Workload{
		{Src: hosts[0], Dst: hosts[8], Rate: 10},
		{Src: hosts[1], Dst: hosts[9], Rate: 10},
		{Src: hosts[2], Dst: hosts[10], Rate: 10},
		{Src: hosts[3], Dst: hosts[11], Rate: 10},
	}
	return d, model.NewSFC(2), w
}

// TestRoutingReportSaturatedCut: Saturated is the hottest-first prefix of
// Links strictly above SaturationThreshold; a link exactly at the
// threshold is not saturated.
func TestRoutingReportSaturatedCut(t *testing.T) {
	d, sfc, w := routingScenario(t)
	w[0].Rate = 30 // one flow hotter than the rest: links at two levels
	report := func(thr float64) *RoutingReport {
		e, err := New(Config{PPDC: d, SFC: sfc, Base: w, Mu: 1,
			Routing: &RoutingConfig{LinkCapacity: 100, SaturationThreshold: thr}})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return e.RoutingReport()
	}
	links := report(1).Links
	thr := links[len(links)-1].Utilization // the coldest loaded link
	rep := report(thr)
	above := 0
	for _, l := range rep.Links {
		if l.Utilization > thr {
			above++
		}
	}
	if above == 0 || above == len(rep.Links) {
		t.Fatalf("%d of %d links above %v: the scenario should split them", above, len(rep.Links), thr)
	}
	if !reflect.DeepEqual(rep.Saturated, rep.Links[:above]) {
		t.Fatalf("saturated %v, want the %d links above %v: %v", rep.Saturated, above, thr, rep.Links[:above])
	}
}

// TestRoutingReportSurvivesLaterEpochs: a report RoutingReport hands out
// is the caller's. The engine refills its pass buffers every epoch — the
// decisions, and the loads Links is built from — so a report sharing
// one would change under its holder: two flash-crowd steps, a fault
// transition and another read later, the held report marshals to the
// bytes it did.
func TestRoutingReportSurvivesLaterEpochs(t *testing.T) {
	e, ops := flashCrowdEngine(t, nil, 8)
	step := func(u []RateUpdate) {
		t.Helper()
		if _, err := e.Ingest(u); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range ops[:3] {
		step(u)
	}
	held := e.RoutingReport()
	want, err := json.Marshal(held)
	if err != nil {
		t.Fatal(err)
	}
	step(ops[3])
	step(ops[4])
	core := e.cfg.PPDC.Switches()[len(e.cfg.PPDC.Switches())-1]
	if _, err := e.ApplyFaults(context.Background(), []fault.Fault{{Kind: fault.Switch, U: core}}, nil); err != nil {
		t.Fatalf("ApplyFaults: %v", err)
	}
	later := e.RoutingReport()
	if got, _ := json.Marshal(held); !bytes.Equal(got, want) {
		t.Fatalf("a held report changed under later epochs and reads:\n got: %s\nwant: %s", got, want)
	}
	// The later passes must move what a shared buffer would carry over.
	if reflect.DeepEqual(later.Decisions, held.Decisions) || reflect.DeepEqual(later.Links, held.Links) {
		t.Fatal("the later pass left decisions or links as they were: the test would miss a shared buffer")
	}
}

func TestEngineCapacityRoutingPublishes(t *testing.T) {
	d, sfc, w := routingScenario(t)
	reg := obs.NewRegistry()
	o := NewObserver(reg, obs.NewEventLog(16), "test")
	e, err := New(Config{PPDC: d, SFC: sfc, Base: w, Mu: 1,
		Routing: &RoutingConfig{LinkCapacity: 1000}, Observer: o})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	snap := e.Snapshot()
	if snap.Routing == nil {
		t.Fatal("initial snapshot has no routing summary")
	}
	if snap.Routing.Admitted != len(w) || snap.Routing.Rejected != 0 {
		t.Fatalf("initial routing %+v, want all %d admitted", snap.Routing, len(w))
	}
	res, err := e.Step()
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if res.Routing == nil || res.Routing.Admitted != len(w) {
		t.Fatalf("step routing %+v", res.Routing)
	}
	rep := e.RoutingReport()
	if rep == nil || len(rep.Decisions) != len(w) {
		t.Fatalf("RoutingReport %+v", rep)
	}
	if rep.MaxUtilization <= 0 || rep.MaxUtilization > 0.1 {
		t.Fatalf("max utilization %v, want small positive", rep.MaxUtilization)
	}
	if len(rep.Links) == 0 || len(rep.Saturated) != 0 {
		t.Fatalf("links %d saturated %d, want loaded links and none saturated", len(rep.Links), len(rep.Saturated))
	}
	if got := reg.Gauge(`vnfopt_sfcroute_admitted{scenario="test"}`).Value(); got != float64(len(w)) {
		t.Fatalf("admitted gauge %v, want %d", got, len(w))
	}
	if got := reg.Gauge(`vnfopt_link_utilization{scenario="test"}`).Value(); got != rep.MaxUtilization {
		t.Fatalf("utilization gauge %v, want %v", got, rep.MaxUtilization)
	}
	// Two passes (New, Step) of two searches each: the 2-VNF chain's two
	// full trees, one at each site, which hold the stage hop and every
	// flow's source and tail legs — nothing is pruned at capacity 1000.
	if got := histogramCount(t, reg, `vnfopt_sfcroute_pass_seconds_count{scenario="test"}`); got != 2 {
		t.Fatalf("pass_seconds observed %d passes, want 2", got)
	}
	if got := reg.Counter(`vnfopt_sfcroute_searches_total{scenario="test"}`).Value(); got != 4 {
		t.Fatalf("searches_total %d, want 4", got)
	}
}

func TestEngineAdmissionRejectsOverCapacity(t *testing.T) {
	d, sfc, w := routingScenario(t)
	reg := obs.NewRegistry()
	o := NewObserver(reg, obs.NewEventLog(16), "")
	// Capacity 15 admits one 10-rate flow per link but not two; the four
	// flows funnel through the two shared chain switches, so some must be
	// rejected — and Classify proves the ones that are.
	e, err := New(Config{PPDC: d, SFC: sfc, Base: w, Mu: 1,
		Routing: &RoutingConfig{LinkCapacity: 15, Classify: true}, Observer: o})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := e.RoutingReport()
	if rep == nil || rep.Rejected == 0 {
		t.Fatalf("expected rejections under capacity 15, got %+v", rep)
	}
	if rep.Admitted+rep.Rejected != len(w) {
		t.Fatalf("admitted %d + rejected %d != %d flows", rep.Admitted, rep.Rejected, len(w))
	}
	if len(rep.RejectReasons) == 0 {
		t.Fatalf("no reject reasons recorded: %+v", rep)
	}
	if got := reg.Gauge("vnfopt_sfcroute_rejected").Value(); got != float64(rep.Rejected) {
		t.Fatalf("rejected gauge %v, want %d", got, rep.Rejected)
	}
	snap := e.Snapshot()
	if snap.Routing == nil || snap.Routing.Rejected != rep.Rejected {
		t.Fatalf("snapshot summary %+v does not match report", snap.Routing)
	}
}

// TestRejectingPassAllocatesNothing: a warm pass that rejects flows
// refills the reject-reason map it kept, as it refills its other
// buffers, and a report read after it still names the reasons.
func TestRejectingPassAllocatesNothing(t *testing.T) {
	d, sfc, w := routingScenario(t)
	e, err := New(Config{PPDC: d, SFC: sfc, Base: w, Mu: 1,
		Routing: &RoutingConfig{LinkCapacity: 15}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := e.routeEpoch(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm rejecting pass allocates %v times, want 0: is the reject-reason map made again?", allocs)
	}
	if rep := e.RoutingReport(); rep.Rejected == 0 || len(rep.RejectReasons) == 0 {
		t.Fatalf("expected rejections and their reasons under capacity 15, got %+v", rep)
	}
}

func TestEngineRoutingSurvivesFaultTransition(t *testing.T) {
	d, sfc, w := routingScenario(t)
	e, err := New(Config{PPDC: d, SFC: sfc, Base: w, Mu: 1,
		Routing: &RoutingConfig{LinkCapacity: 1000}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Kill one core switch: the serving model swaps and the router must
	// rebuild against the degraded fabric.
	core := d.Switches()[len(d.Switches())-1]
	if _, err := e.ApplyFaults(context.Background(), []fault.Fault{{Kind: fault.Switch, U: core}}, nil); err != nil {
		t.Fatalf("ApplyFaults: %v", err)
	}
	rep := e.RoutingReport()
	if rep == nil || rep.Admitted == 0 {
		t.Fatalf("no routing report after fault: %+v", rep)
	}
	if _, err := e.Step(); err != nil {
		t.Fatalf("Step after fault: %v", err)
	}
	if rep = e.RoutingReport(); rep == nil || rep.Epoch != 1 {
		t.Fatalf("stale routing report after post-fault step: %+v", rep)
	}
}

func TestEngineRoutingDisabledByDefault(t *testing.T) {
	d, sfc, w := routingScenario(t)
	e, err := New(Config{PPDC: d, SFC: sfc, Base: w, Mu: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if e.Snapshot().Routing != nil || e.RoutingReport() != nil {
		t.Fatal("routing artifacts present without Config.Routing")
	}
	res, err := e.Step()
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if res.Routing != nil {
		t.Fatal("step routing summary present without Config.Routing")
	}
}

func TestEngineRoutingConfigValidation(t *testing.T) {
	d, sfc, w := routingScenario(t)
	if _, err := New(Config{PPDC: d, SFC: sfc, Base: w, Mu: 1,
		Routing: &RoutingConfig{}}); err == nil {
		t.Fatal("accepted zero link capacity")
	}
	if _, err := New(Config{PPDC: d, SFC: sfc, Base: w, Mu: 1,
		Routing: &RoutingConfig{LinkCapacity: 10, Alpha: -1}}); err == nil {
		t.Fatal("accepted negative alpha")
	}
	for _, thr := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := New(Config{PPDC: d, SFC: sfc, Base: w, Mu: 1,
			Routing: &RoutingConfig{LinkCapacity: 10, SaturationThreshold: thr}}); err == nil {
			t.Fatalf("accepted saturation threshold %v", thr)
		}
	}
}

// TestEngineAdmissionSpreadsWithinEpoch pins the mechanism behind the
// flash-crowd example: with a utilization target, residual-headroom
// pruning pushes same-pair flows onto disjoint equal-cost paths inside
// one epoch, keeping the hottest link at the target while the
// capacity-blind route stacks everything on one path.
func TestEngineAdmissionSpreadsWithinEpoch(t *testing.T) {
	d := model.MustNew(topology.MustFatTree(4, nil), model.Options{})
	hosts := d.Hosts()
	// Four flows per host pair across pods: 8 × rate 10 between pods 0↔2.
	var w model.Workload
	for i := 0; i < 4; i++ {
		w = append(w, model.VMPair{Src: hosts[i], Dst: hosts[8+i], Rate: 20})
	}
	e, err := New(Config{PPDC: d, SFC: model.NewSFC(1), Base: w, Mu: 1,
		Routing: &RoutingConfig{LinkCapacity: 100, MaxUtilization: 0.40, Classify: true}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := e.RoutingReport()
	if rep == nil {
		t.Fatal("no routing report")
	}
	if rep.MaxUtilization > 0.40+1e-12 {
		t.Fatalf("admission exceeded the 0.40 target: %v at %v", rep.MaxUtilization, rep.MaxLink)
	}
	for _, dec := range rep.Decisions {
		if !dec.Admitted && dec.Reason == sfcroute.ReasonInfeasible {
			t.Fatalf("flow %d provably infeasible under 0.40 target: %+v", dec.Flow, dec)
		}
	}
}

// TestResumeRefusesRepeatedPricedLink: State lists priced_from in link
// order, one record a link. A state naming a link twice is refused with
// an error naming the link, not resumed on whichever record came last.
func TestResumeRefusesRepeatedPricedLink(t *testing.T) {
	d, sfc, w := routingScenario(t)
	cfg := Config{PPDC: d, SFC: sfc, Base: w, Mu: 1,
		Routing: &RoutingConfig{LinkCapacity: 12, Alpha: 1}}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	st := e.State()
	if len(st.PricedFrom) == 0 {
		t.Fatal("no priced_from after a priced pass")
	}
	if _, err := resume(cfg, st); err != nil {
		t.Fatalf("resume of the saved state: %v", err)
	}
	dup := st.PricedFrom[0]
	dup.Load++
	st.PricedFrom = append(st.PricedFrom[:1], append([]PricedLink{dup}, st.PricedFrom[1:]...)...)
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("link (%d,%d) repeated", dup.U, dup.V)
	if _, err := ResumeJSON(cfg, blob); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ResumeJSON with a repeated link: %v, want an error with %q", err, want)
	}
}

// TestResumeRoutesRestoredState: an engine resumed from State serves the
// routing report of what it restored — the saved rates and placement on
// the saved degraded fabric, at the saved epoch — not the base-rate,
// pristine-fabric, epoch-0 pass its construction ran, and from there on
// routes every epoch as the saved engine does. With congestion pricing
// (Alpha > 0) that takes the loads that priced the saved engine's last
// pass, which State carries — also while faults are active, where both
// engines' routers are on a fault view's weights: rebased there by a
// transition, or built there by the resume.
func TestResumeRoutesRestoredState(t *testing.T) {
	for _, alpha := range []float64{0, 2} {
		t.Run(fmt.Sprintf("alpha=%v", alpha), func(t *testing.T) {
			d, sfc, w := routingScenario(t)
			cfg := Config{PPDC: d, SFC: sfc, Base: w, Mu: 1,
				Routing: &RoutingConfig{LinkCapacity: 12, Alpha: alpha, Classify: true}}
			e, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			same := func(stage string, r *Engine) {
				t.Helper()
				if got, want := r.RoutingReport(), e.RoutingReport(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: resumed routing report\n got: %+v\nwant: %+v", stage, got, want)
				}
				if got, want := r.Snapshot().Routing, e.Snapshot().Routing; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: resumed snapshot summary %+v, want %+v", stage, got, want)
				}
			}
			resume := func(stage string) *Engine {
				t.Helper()
				blob, err := e.MarshalState()
				if err != nil {
					t.Fatal(err)
				}
				r, err := ResumeJSON(cfg, blob)
				if err != nil {
					t.Fatalf("%s: ResumeJSON: %v", stage, err)
				}
				same(stage+", just resumed", r)
				return r
			}

			core := d.Switches()[len(d.Switches())-1]
			faults := func(inject, heal []fault.Fault) func(*Engine) error {
				return func(x *Engine) error {
					_, err := x.ApplyFaults(context.Background(), inject, heal)
					return err
				}
			}
			uplink := fault.Fault{Kind: fault.Link, U: w[2].Src, V: d.Topo.Graph.Neighbors(w[2].Src)[0].To}
			hot := fault.Fault{Kind: fault.Degrade, U: w[0].Src, V: d.Topo.Graph.Neighbors(w[0].Src)[0].To, Factor: 3}
			step := func(updates ...RateUpdate) func(*Engine) error {
				return func(x *Engine) error {
					if _, err := x.Ingest(updates); err != nil {
						return err
					}
					_, err := x.Step()
					return err
				}
			}
			// r is resumed after every stage and then taken through the next
			// one next to e: it must land where e does.
			r := resume("new")
			priced, pricedDegraded := false, false
			for i, stage := range []func(*Engine) error{
				step(RateUpdate{Flow: 0, Rate: 11}),
				step(RateUpdate{Flow: 1, Rate: 4}),
				faults([]fault.Fault{{Kind: fault.Switch, U: core}}, nil),
				step(RateUpdate{Flow: 0, Rate: 24}, RateUpdate{Flow: 3, Rate: 2}),
				step(),
				faults([]fault.Fault{uplink, hot}, nil),
				step(RateUpdate{Flow: 1, Rate: 13}),
				faults(nil, []fault.Fault{{Kind: fault.Switch, U: core}}),
				step(RateUpdate{Flow: 2, Rate: 9}),
				faults(nil, []fault.Fault{uplink, hot}),
				step(),
			} {
				name := fmt.Sprintf("stage %d", i)
				for _, x := range []*Engine{e, r} {
					if err := stage(x); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				same(name+", one epoch after resuming", r)
				st := e.State()
				priced = priced || len(st.PricedFrom) > 0
				pricedDegraded = pricedDegraded || len(st.PricedFrom) > 0 && len(st.Faults) > 0
				r = resume(name)
			}
			if rep := e.RoutingReport(); rep.Rejected == 0 || rep.Admitted == 0 {
				t.Fatalf("fixture is not over capacity: %+v", rep)
			}
			if priced != (alpha > 0) || pricedDegraded != (alpha > 0) {
				t.Fatalf("state carried pricing loads: %v, with faults active: %v, with alpha %v", priced, pricedDegraded, alpha)
			}
		})
	}
}
