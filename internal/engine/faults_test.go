package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"vnfopt/internal/fault"
	"vnfopt/internal/graph"
	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/obs"
	"vnfopt/internal/placement"
	"vnfopt/internal/topology"
)

// panicMigrator stands in for a buggy TOM solver: it panics on every
// consult.
type panicMigrator struct{}

func (panicMigrator) Name() string { return "panic" }
func (panicMigrator) Migrate(*model.PPDC, model.Workload, model.SFC, model.Placement, float64) (model.Placement, float64, error) {
	panic("deliberate test panic")
}

// TestStepRecoversMigratorPanic is the regression test for panic
// containment: a panicking migrator must surface as a step error (event
// + counter) and leave the engine usable, not kill the process.
func TestStepRecoversMigratorPanic(t *testing.T) {
	reg := obs.NewRegistry()
	events := obs.NewEventLog(64)
	e, _ := newEngineCfg(t, 11, Config{
		Migrator: panicMigrator{},
		Observer: NewObserver(reg, events, ""),
	})
	if _, err := e.Step(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Step with panicking migrator: err=%v, want panic surfaced as error", err)
	}
	if got := reg.Counter("vnfopt_engine_step_errors_total").Value(); got != 1 {
		t.Fatalf("step_errors_total=%d, want 1", got)
	}
	found := false
	for _, ev := range events.Events() {
		if ev.Type == "step_error" {
			found = true
		}
	}
	if !found {
		t.Fatal("no step_error event recorded")
	}
	// The failed epoch did not close; the engine keeps serving.
	if snap := e.Snapshot(); snap.Epoch != 0 {
		t.Fatalf("epoch advanced past failed step: %d", snap.Epoch)
	}
}

func TestApplyFaultsRepairsPlacement(t *testing.T) {
	reg := obs.NewRegistry()
	events := obs.NewEventLog(256)
	e, _ := newEngineCfg(t, 7, Config{Observer: NewObserver(reg, events, "")})
	victim := e.Snapshot().Placement[0]
	f := fault.Fault{Kind: fault.Switch, U: victim}

	res, err := e.ApplyFaults(context.Background(), []fault.Fault{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Injected != 1 || len(res.Active) != 1 {
		t.Fatalf("bad transition report: %+v", res)
	}
	if res.Repair == nil || res.Repair.Moves < 1 {
		t.Fatalf("killing a hosting switch must force a repair move: %+v", res.Repair)
	}
	snap := e.Snapshot()
	if !snap.Degraded || snap.ActiveFaults != 1 {
		t.Fatalf("snapshot not degraded: %+v", snap)
	}
	for _, s := range snap.Placement {
		if s == victim {
			t.Fatalf("placement still uses dead switch %d", victim)
		}
	}
	if reg.Gauge("vnfopt_engine_degraded").Value() != 1 {
		t.Fatal("degraded gauge not set")
	}
	if reg.Counter("vnfopt_engine_repairs_total").Value() != 1 {
		t.Fatal("repairs counter not incremented")
	}
	var sawRepair bool
	for _, ev := range events.Events() {
		if ev.Type == "repair" {
			sawRepair = true
		}
	}
	if !sawRepair {
		t.Fatal("no repair event recorded")
	}

	// Stepping while degraded keeps costs finite and the placement live.
	sr, err := e.Step()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(sr.CommCost, 0) || math.IsNaN(sr.CommCost) {
		t.Fatalf("degraded step cost not finite: %v", sr.CommCost)
	}

	// Heal: back to the pristine fabric, gauges reset.
	res, err = e.ApplyFaults(context.Background(), nil, []fault.Fault{f})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.Healed != 1 || len(res.Active) != 0 {
		t.Fatalf("bad heal report: %+v", res)
	}
	snap = e.Snapshot()
	if snap.Degraded || snap.ActiveFaults != 0 || snap.UnservedFlows != 0 {
		t.Fatalf("snapshot still degraded after heal: %+v", snap)
	}
	if reg.Gauge("vnfopt_engine_degraded").Value() != 0 {
		t.Fatal("degraded gauge not cleared")
	}
	m := e.Metrics()
	if m.FaultsInjected != 1 || m.FaultsHealed != 1 {
		t.Fatalf("fault counters: %+v", m)
	}
}

func TestApplyFaultsDeadHostExcludesFlow(t *testing.T) {
	e, _ := newEngine(t, Policy{}, 13)
	victim := e.cfg.Base[0].Src
	res, err := e.ApplyFaults(context.Background(), []fault.Fault{{Kind: fault.Host, U: victim}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unserved) == 0 {
		t.Fatal("killing a flow endpoint must unserve the flow")
	}
	for _, u := range res.Unserved {
		if u.Reason != fault.ReasonDeadEndpoint {
			t.Fatalf("reason=%q, want dead_endpoint", u.Reason)
		}
	}
	snap := e.Snapshot()
	if snap.UnservedFlows != len(res.Unserved) {
		t.Fatalf("snapshot unserved=%d, want %d", snap.UnservedFlows, len(res.Unserved))
	}
	// Rate updates to an unserved flow are still accepted and recorded.
	if _, err := e.Ingest([]RateUpdate{{Flow: res.Unserved[0].Flow, Rate: 42}}); err != nil {
		t.Fatal(err)
	}
	if sr, err := e.Step(); err != nil {
		t.Fatal(err)
	} else if math.IsInf(sr.CommCost, 0) || math.IsNaN(sr.CommCost) {
		t.Fatalf("cost not finite with unserved flow: %v", sr.CommCost)
	}
	if e.flows[res.Unserved[0].Flow].Rate != 42 {
		t.Fatal("rate update to unserved flow not recorded")
	}
}

func TestApplyFaultsInfeasibleIsAtomic(t *testing.T) {
	topo, err := topology.Linear(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := model.MustNew(topo, model.Options{})
	base := model.Workload{{Src: topo.Hosts[0], Dst: topo.Hosts[1], Rate: 2}}
	e, err := New(Config{PPDC: d, SFC: model.NewSFC(3), Base: base, Mu: 10})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot()
	// An un-stepped update rides along: the refusal must leave it pending,
	// not fold it into the flow table behind the cost cache's back.
	if _, err := e.Ingest([]RateUpdate{{Flow: 0, Rate: 5}}); err != nil {
		t.Fatal(err)
	}
	var kill []fault.Fault
	for _, s := range topo.Switches {
		kill = append(kill, fault.Fault{Kind: fault.Switch, U: s})
	}
	_, err = e.ApplyFaults(context.Background(), kill, nil)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err=%v, want ErrInfeasible", err)
	}
	after := e.Snapshot()
	if after.Degraded || len(e.Faults()) != 0 {
		t.Fatal("rejected transition mutated engine state")
	}
	if after.Epoch != before.Epoch || after.CommCost != before.CommCost {
		t.Fatalf("snapshot changed on rejected transition: %+v vs %+v", before, after)
	}
	if e.Settled() || e.State().Rates[0] != 2 {
		t.Fatalf("rejected transition folded the pending update: settled %v, rates %v", e.Settled(), e.State().Rates)
	}
	sr, err := e.Step()
	if err != nil {
		t.Fatal(err)
	}
	if want := before.CommCost * 5 / 2; sr.CommCost != want {
		t.Fatalf("C_a after the step %v, want %v: the pending rate never reached the cost cache", sr.CommCost, want)
	}
}

// TestApplyFaultsCommitsFallback: a topology event makes one repair
// consult; when it fails, the greedy fallback is committed at once.
func TestApplyFaultsCommitsFallback(t *testing.T) {
	e, _ := newEngineCfg(t, 7, Config{Migrator: panicMigrator{}})
	victim := e.Snapshot().Placement[0]
	res, err := e.ApplyFaults(context.Background(), []fault.Fault{{Kind: fault.Switch, U: victim}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repair.Fallback {
		t.Fatalf("want the fallback committed, got %+v", res.Repair)
	}
	if m := e.Metrics(); m.RepairFallbacks != 1 || m.Repairs != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	for _, s := range e.Snapshot().Placement {
		if s == victim {
			t.Fatal("fallback placement still on dead switch")
		}
	}
}

// TestRepairIsDeterministic pins why a topology event makes one repair
// consult: every migrator the daemon can select, bare and under a
// one-move budget, answers the same Problem bit for bit twice. None reads
// a clock or a random source, so a second consult after a fallback could
// only return the same fallback.
func TestRepairIsDeterministic(t *testing.T) {
	migrators := []migration.Migrator{
		migration.MPareto{},
		migration.Exhaustive{NodeBudget: 500_000, Seed: migration.MPareto{}},
		migration.NoMigration{},
	}
	for _, m := range migrators {
		for _, budget := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/budget=%d", m.Name(), budget), func(t *testing.T) {
				e, _ := newEngineCfg(t, 7, Config{Migrator: m, Policy: Policy{Budget: budget}})
				victim := fault.Fault{Kind: fault.Switch, U: e.p[0]}
				view, err := fault.ApplyDelta(e.cfg.PPDC, nil, e.faults.Add(victim))
				if err != nil {
					t.Fatal(err)
				}
				plan := view.PlanService(e.flows)
				pr := plan.PPDC.NewWorkloadCache(plan.Served).Problem(e.cfg.SFC)
				var runs [2]*migration.RepairResult
				for i := range runs {
					if runs[i], err = migration.Repair(context.Background(), pr, e.cfg.PPDC, e.p, e.cfg.Mu, e.mig); err != nil {
						t.Fatal(err)
					}
				}
				a, b := runs[0], runs[1]
				if !reflect.DeepEqual(a, b) || math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
					t.Fatalf("two repairs of one Problem differ:\n%+v\n%+v", a, b)
				}
				if len(a.Forced) == 0 || a.Forced[0] != 0 {
					t.Fatalf("VNF 0 sat on the dead switch and was not forced off: %+v", a)
				}
			})
		}
	}
}

func TestApplyFaultsNoopAndHealValidation(t *testing.T) {
	e, _ := newEngine(t, Policy{}, 7)
	f := fault.Fault{Kind: fault.Switch, U: e.cfg.PPDC.Topo.Switches[0]}
	if _, err := e.ApplyFaults(context.Background(), nil, []fault.Fault{f}); err == nil {
		t.Fatal("healing an inactive fault should fail")
	}
	if _, err := e.ApplyFaults(context.Background(), []fault.Fault{{Kind: fault.Switch, U: -5}}, nil); err == nil {
		t.Fatal("injecting an invalid fault should fail")
	}
	res, err := e.ApplyFaults(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != 0 || res.Healed != 0 || res.Repair != nil {
		t.Fatalf("empty transition should be a no-op report: %+v", res)
	}
	// Re-injecting an active fault is idempotent.
	if _, err := e.ApplyFaults(context.Background(), []fault.Fault{f}, nil); err != nil {
		t.Fatal(err)
	}
	res, err = e.ApplyFaults(context.Background(), []fault.Fault{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != 0 || len(res.Active) != 1 {
		t.Fatalf("re-inject should be idempotent: %+v", res)
	}
}

// TestStateRoundTripWithFaults: resume rebuilds the degraded view through
// the delta path (fault.ApplyDelta from the pristine matrix). For every
// fault mix the resumed view must match the full-rebuild oracle bitwise,
// and the resumed engine must then track the engine that never stopped
// through a further inject, step and heal, State() byte for byte.
func TestStateRoundTripWithFaults(t *testing.T) {
	ref, _ := newEngine(t, Policy{}, 7)
	d := ref.cfg.PPDC
	victim := ref.Snapshot().Placement[0]
	// Switch-to-switch links clear of the victim, and one flow's host with
	// its (pendant) uplink.
	var links [][2]int
	for _, e := range d.Topo.Graph.Edges() {
		if d.Topo.Kind[e.U] == topology.Switch && d.Topo.Kind[e.V] == topology.Switch && e.U != victim && e.V != victim {
			links = append(links, [2]int{e.U, e.V})
		}
	}
	host := ref.cfg.Base[0].Src
	uplink := d.Topo.Graph.Neighbors(host)[0].To
	link := func(i int) fault.Fault { return fault.Fault{Kind: fault.Link, U: links[i][0], V: links[i][1]} }
	degrade := func(u, v int) fault.Fault { return fault.Fault{Kind: fault.Degrade, U: u, V: v, Factor: 4} }

	for name, faults := range map[string][]fault.Fault{
		"switch":              {{Kind: fault.Switch, U: victim}},
		"link+uplink degrade": {link(0), degrade(host, uplink)},
		"host+switch+degrade": {{Kind: fault.Host, U: host}, {Kind: fault.Switch, U: victim}, degrade(links[1][0], links[1][1])},
	} {
		t.Run(name, func(t *testing.T) {
			e, _ := newEngine(t, Policy{}, 7)
			if _, err := e.ApplyFaults(context.Background(), faults, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
			data, err := e.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			r, err := ResumeJSON(e.cfg, data)
			if err != nil {
				t.Fatal(err)
			}
			if s := r.Snapshot(); !s.Degraded || s.ActiveFaults != len(faults) {
				t.Fatalf("resumed engine lost degraded mode: %+v", s)
			}
			oracle, err := fault.Apply(d, fault.NewFaultSet(faults...))
			if err != nil {
				t.Fatal(err)
			}
			if err := fault.Diff(r.view, oracle); err != nil {
				t.Fatalf("resumed view diverges from the full rebuild: %v", err)
			}

			state := func(x *Engine) []byte {
				st := x.State()
				st.Metrics.LastEpoch, st.Metrics.TotalEpoch = 0, 0
				out, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			extra := []fault.Fault{link(2)}
			for _, x := range []*Engine{e, r} {
				if _, err := x.ApplyFaults(context.Background(), extra, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := x.Step(); err != nil {
					t.Fatal(err)
				}
				if _, err := x.ApplyFaults(context.Background(), nil, extra); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := state(r), state(e); !bytes.Equal(got, want) {
				t.Fatalf("resumed engine diverged from the one that never stopped:\n%s\n%s", got, want)
			}
			// The resumed engine can heal back to pristine.
			if _, err := r.ApplyFaults(context.Background(), nil, faults); err != nil {
				t.Fatal(err)
			}
			if r.Snapshot().Degraded {
				t.Fatal("heal after resume failed")
			}
		})
	}
}

// fabricWeight returns the least weight of the arcs u→v of d's fabric,
// the CSR its APSP is over: +Inf where none is live.
func fabricWeight(d *model.PPDC, u, v int) float64 {
	least := graph.Inf
	d.APSP.Fabric().ForEachSlot(func(_, a, b int, w float64) {
		if a == u && b == v {
			least = min(least, w)
		}
	})
	return least
}

// TestApplyFaultsDegrade drives the soft-failure path end to end: a
// degrade re-prices the fabric without killing anything, a factor change
// counts as a fresh injection, the heal names only the link, and the
// engine returns to pristine bit-exact state.
func TestApplyFaultsDegrade(t *testing.T) {
	e, _ := newEngine(t, Policy{}, 7)
	d := e.cfg.PPDC
	// Degrade the first link of the fabric by 5x.
	g := d.Topo.Graph
	var u, v int
	for x := 0; x < g.Order() && v == 0; x++ {
		for _, ed := range g.Neighbors(x) {
			if x < ed.To {
				u, v = x, ed.To
				break
			}
		}
	}
	deg := fault.Fault{Kind: fault.Degrade, U: u, V: v, Factor: 5}

	res, err := e.ApplyFaults(context.Background(), []fault.Fault{deg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Injected != 1 || len(res.Unserved) != 0 {
		t.Fatalf("degrade transition: %+v", res)
	}
	snap := e.Snapshot()
	if !snap.Degraded || snap.ActiveFaults != 1 || snap.UnservedFlows != 0 {
		t.Fatalf("degrade must not unserve flows: %+v", snap)
	}
	pw := d.Topo.Graph.EdgeWeight(u, v)
	if got := fabricWeight(e.view.PPDC(), u, v); got != pw*5 {
		t.Fatalf("serving fabric edge weight %v, want %v", got, pw*5)
	}

	// Re-degrading at a different factor replaces the multiplier and
	// counts as an injection (the set changed), not a no-op.
	deg2 := fault.Fault{Kind: fault.Degrade, U: u, V: v, Factor: 2}
	res, err = e.ApplyFaults(context.Background(), []fault.Fault{deg2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != 1 || len(res.Active) != 1 {
		t.Fatalf("factor change not treated as injection: %+v", res)
	}
	if got := fabricWeight(e.view.PPDC(), u, v); got != pw*2 {
		t.Fatalf("replaced factor: edge weight %v, want %v", got, pw*2)
	}
	// Re-degrading at the SAME factor is a no-op.
	res, err = e.ApplyFaults(context.Background(), []fault.Fault{deg2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != 0 {
		t.Fatalf("identical re-degrade counted as injection: %+v", res)
	}

	// Heal names the link only — no factor — and restores pristine costs.
	heal := fault.Fault{Kind: fault.Degrade, U: v, V: u}
	res, err = e.ApplyFaults(context.Background(), nil, []fault.Fault{heal})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.Healed != 1 || len(res.Active) != 0 {
		t.Fatalf("degrade heal: %+v", res)
	}
	if snap := e.Snapshot(); snap.Degraded || snap.ActiveFaults != 0 {
		t.Fatalf("engine still degraded after heal: %+v", snap)
	}
	// Healing it twice is an error, like any inactive fault.
	if _, err := e.ApplyFaults(context.Background(), nil, []fault.Fault{heal}); err == nil {
		t.Fatal("double heal of degrade succeeded")
	}
	// Bad factors are rejected atomically.
	bad := fault.Fault{Kind: fault.Degrade, U: u, V: v, Factor: -1}
	if _, err := e.ApplyFaults(context.Background(), []fault.Fault{bad}, nil); err == nil {
		t.Fatal("negative degrade factor accepted")
	}
}

// TestFaultStormInvariants replays faultStormEngine's cycle and checks,
// after every event, what the repair leaves behind: the placement sits on
// distinct live switches of the serving model, and the cost cache — its
// switch cells, Λ, C_a of the placement, the rate-1 vectors the Steering
// seed reads, and the switch closure with its floor — holds the bits
// fresh caches over the served workload hold, although the event derived
// it from the cache before. The event copies no more closure rows than
// its repair consult reads: no more than the same repair copies on a
// fresh cache. No DP table outlives its fabric either: the repair run
// again on a fresh cache, from the placement before the event, commits
// the placement the engine did.
func TestFaultStormInvariants(t *testing.T) {
	e, events := faultStormEngine(t, nil)
	ctx := context.Background()
	copiedAll := 0
	for i, ev := range events {
		prev := e.p.Clone()
		if _, err := e.ApplyFaults(ctx, ev.inject, ev.heal); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		copied := e.cache.ClosureRowsCopied() // before the reads below copy the rest
		copiedAll += copied
		closureMatchesFresh(t, fmt.Sprintf("event %d", i), e.cache.SwitchCosts(), e.d.APSP.CostMatrix(e.d.Topo.Switches))
		live := make(map[int]bool, len(e.d.Topo.Switches))
		for _, s := range e.d.Topo.Switches {
			live[s] = true
		}
		seen := make(map[int]bool, len(e.p))
		for _, s := range e.p {
			if !live[s] || seen[s] || e.view != nil && e.view.Dead(s) {
				t.Fatalf("event %d: placement %v is not on distinct live switches", i, e.p)
			}
			seen[s] = true
		}

		served := e.servedWorkload()
		fresh := e.d.NewWorkloadCache(served)
		unit := make(model.Workload, len(served))
		for j, f := range served {
			f.Rate = 1
			unit[j] = f
		}
		inU, egU := e.d.NewWorkloadCache(unit).EndpointCosts()
		in, eg := e.cache.EndpointCosts()
		inF, egF := fresh.EndpointCosts()
		unitIn, unitEg := e.cache.UnitEndpointCosts()
		for _, s := range e.d.Topo.Switches {
			if in[s] != inF[s] || eg[s] != egF[s] {
				t.Fatalf("event %d: switch %d cell (%v,%v), fresh cache (%v,%v)", i, s, in[s], eg[s], inF[s], egF[s])
			}
			if unitIn[s] != inU[s] || unitEg[s] != egU[s] {
				t.Fatalf("event %d: switch %d unit cell (%v,%v), fresh rate-1 cache (%v,%v)", i, s, unitIn[s], unitEg[s], inU[s], egU[s])
			}
		}
		if e.cache.TotalRate() != fresh.TotalRate() || e.cache.CommCost(e.p) != fresh.CommCost(e.p) {
			t.Fatalf("event %d: Λ %v / C_a %v, fresh cache %v / %v", i,
				e.cache.TotalRate(), e.cache.CommCost(e.p), fresh.TotalRate(), fresh.CommCost(e.p))
		}

		if err := served.Validate(e.d); err != nil {
			t.Fatalf("event %d: served workload: %v", i, err)
		}
		res, err := migration.Repair(ctx, fresh.Problem(e.cfg.SFC), e.cfg.PPDC, prev, e.cfg.Mu, e.mig)
		if err != nil {
			t.Fatalf("event %d: repair on a fresh cache: %v", i, err)
		}
		if read := fresh.ClosureRowsCopied(); copied > read {
			t.Fatalf("event %d: the event copied %d closure rows, its repair consult reads %d", i, copied, read)
		}
		wantP := prev
		if res.Moves > 0 {
			wantP = res.Placement
		}
		if !wantP.Equal(e.p) {
			t.Fatalf("event %d: engine placement %v, repair on a fresh cache %v", i, e.p, wantP)
		}
		// Algorithm 3 on the engine's cache — its tables filled by this
		// event's repair — answers as on the fresh one.
		pE, cE, errE := placement.Solve(ctx, placement.DP{}, e.cache.Problem(e.cfg.SFC))
		pF, cF, errF := placement.Solve(ctx, placement.DP{}, fresh.Problem(e.cfg.SFC))
		if errE != nil || errF != nil || !pE.Equal(pF) || cE != cF {
			t.Fatalf("event %d: DP on the engine's cache %v at %v (%v), on a fresh cache %v at %v (%v)", i, pE, cE, errE, pF, cF, errF)
		}
	}
	if e.faults.Len() != 0 {
		t.Fatalf("the cycle ends with %d faults active, want pristine", e.faults.Len())
	}
	t.Logf("closure rows copied by the events: %d (%.1f per event)", copiedAll, float64(copiedAll)/float64(len(events)))
}

// closureMatchesFresh holds every cell of a switch-closure view to want,
// a fresh CostMatrix over the same switches, bit for bit — each row read
// through Row and each cell through Cost — and the view's floor to at
// most want's least cell off the diagonal.
func closureMatchesFresh(t *testing.T, what string, view *graph.Closure, want [][]float64) {
	t.Helper()
	if view.Len() != len(want) {
		t.Fatalf("%s: closure over %d switches, fresh %d", what, view.Len(), len(want))
	}
	least := math.Inf(1)
	for r, wantRow := range want {
		row := view.Row(r)
		for c, x := range wantRow {
			if math.Float64bits(row[c]) != math.Float64bits(x) || math.Float64bits(view.Cost(r, c)) != math.Float64bits(x) {
				t.Fatalf("%s: closure[%d][%d] Row %v, Cost %v, fresh CostMatrix %v", what, r, c, row[c], view.Cost(r, c), x)
			}
			if c != r {
				least = min(least, x)
			}
		}
	}
	if view.Floor() > least {
		t.Fatalf("%s: closure floor %v above the least cost between two switches, %v", what, view.Floor(), least)
	}
}
