package engine

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"vnfopt/internal/fault"
	"vnfopt/internal/model"
	"vnfopt/internal/obs"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// benchEngine builds an engine over the standard fixture with an
// optional observer, pre-binding the hourly rate updates.
func benchEngine(b *testing.B, o *Observer) (*Engine, [][]RateUpdate) {
	b.Helper()
	e, sched := newEngineCfg(b, 7, Config{Policy: Policy{Hysteresis: 1.05, Cooldown: 1}, Observer: o})
	updates := make([][]RateUpdate, len(sched))
	for h, rates := range sched {
		updates[h] = hourUpdates(rates)
	}
	return e, updates
}

func runEngineBench(b *testing.B, o *Observer) {
	e, updates := benchEngine(b, o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := updates[i%len(updates)]
		if _, err := e.Ingest(u); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineStep is the uninstrumented baseline: the ≤3%-overhead
// acceptance gate for the observability layer compares this against
// BenchmarkEngineStepObserved.
func BenchmarkEngineStep(b *testing.B) {
	runEngineBench(b, nil)
}

// BenchmarkEngineStepObserved runs the identical loop with a live
// registry + event log attached.
func BenchmarkEngineStepObserved(b *testing.B) {
	r := obs.NewRegistry()
	runEngineBench(b, NewObserver(r, obs.NewEventLog(obs.DefaultEventCapacity), "bench"))
}

// diurnalEngine is the reaction-time benchmark's `diurnal-react`
// scenario in process (bench/workloads.go genDiurnal, seed 1, scenario
// 0): a k=8 fat tree, 2000 flows clustered on 8 racks, a 5-VNF chain,
// μ = 100, mPareto consulted every epoch (hysteresis 0), and the full
// PaperBurst rate vector of each hour as one update batch.
func diurnalEngine(tb testing.TB) (*Engine, [][]RateUpdate) {
	tb.Helper()
	ft := topology.MustFatTree(8, nil)
	rng := rand.New(rand.NewSource(7919))
	base := workload.MustPairsClustered(ft, 2000, 8, workload.DefaultIntraRack, rng)
	sched, err := workload.PaperBurst().Schedule(ft, base, rng)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(Config{PPDC: model.MustNew(ft, model.Options{}), SFC: model.NewSFC(5), Base: base, Mu: 100})
	if err != nil {
		tb.Fatal(err)
	}
	var hours [][]RateUpdate
	for _, rates := range sched {
		if slices.Max(rates) > 0 { // the schedule's dead hour: nothing to react to
			hours = append(hours, hourUpdates(rates))
		}
	}
	return e, hours
}

// BenchmarkEngineStepDiurnal times one hour of diurnalEngine: Ingest of
// the 2000-flow vector plus the Step that rebuilds the cost cache and
// consults TOM on it. Before/after figures are in docs/ENGINE.md.
func BenchmarkEngineStepDiurnal(b *testing.B) {
	e, hours := diurnalEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Ingest(hours[i%len(hours)]); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// flashCrowdEngine is the reaction-time benchmark's `flashcrowd-routed`
// scenario in process (bench/workloads.go genFlashCrowd, seed 1, scenario
// 0): a k=8 fat tree, 1 000 flows with flow f sourced in rack f mod 32,
// a 3-VNF chain, μ = 1000, hysteresis 1.05, and the capacity-aware route
// pass on — link capacity capacityFactor × the base total rate (8 in the
// benchmark, where no pass refuses anything), α 0.5, admission at 80 %
// utilization, rejections classified. Each op restores the previous
// rack's crowd of 16 flows and lifts the next one's thirty-fold.
func flashCrowdEngine(tb testing.TB, o *Observer, capacityFactor float64) (*Engine, [][]RateUpdate) {
	tb.Helper()
	const k, flows, crowdSize, crowdFactor = 8, 1000, 16, 30
	topo := topology.MustFatTree(k, nil)
	rng := rand.New(rand.NewSource(7919))
	racks := topo.Racks
	base := make(model.Workload, flows)
	crowd := make([][]int, len(racks))
	for f := range base {
		r := f % len(racks)
		src, dst := racks[r], racks[r]
		if rng.Float64() >= workload.DefaultIntraRack {
			dst = racks[rng.Intn(len(racks))]
		}
		base[f] = model.VMPair{Src: src[rng.Intn(len(src))], Dst: dst[rng.Intn(len(dst))], Rate: workload.Rate(rng)}
		if len(crowd[r]) < crowdSize {
			crowd[r] = append(crowd[r], f)
		}
	}
	var order []int
	for _, r := range rng.Perm(len(racks)) {
		if len(crowd[r]) > 0 {
			order = append(order, r)
		}
	}
	e, err := New(Config{
		PPDC: model.MustNew(topo, model.Options{}), SFC: model.NewSFC(3), Base: base, Mu: 1000,
		Policy:   Policy{Hysteresis: 1.05},
		Routing:  &RoutingConfig{LinkCapacity: base.TotalRate() * capacityFactor, Alpha: 0.5, MaxUtilization: 0.8, Classify: true},
		Observer: o,
	})
	if err != nil {
		tb.Fatal(err)
	}
	ops := make([][]RateUpdate, len(order))
	for j, r := range order {
		prev := order[(j+len(order)-1)%len(order)]
		for _, f := range crowd[prev] {
			ops[j] = append(ops[j], RateUpdate{Flow: f, Rate: base[f].Rate})
		}
		for _, f := range crowd[r] {
			ops[j] = append(ops[j], RateUpdate{Flow: f, Rate: base[f].Rate * crowdFactor})
		}
	}
	return e, ops
}

// BenchmarkEngineStepFlashCrowd times one op of flashCrowdEngine: Ingest
// of the two crowds' 32 updates plus the Step that folds them, consults
// TOM past the hysteresis and runs the route pass. Before/after figures
// are in docs/ENGINE.md.
func BenchmarkEngineStepFlashCrowd(b *testing.B) {
	e, ops := flashCrowdEngine(b, nil, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Ingest(ops[i%len(ops)]); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// stormEvent is one topology event of faultStormEngine's schedule.
type stormEvent struct{ inject, heal []fault.Fault }

// faultStormEngine is the reaction-time benchmark's `fault-storm`
// scenario in process (bench/workloads.go genFaultStorm, seed 1, scenario
// 0): a k=16 fat tree, 500 flows clustered on 16 racks, a 3-VNF chain,
// μ = 1000, mPareto repair, and one 64-event cycle drawn from the storm
// seed — the fixed prelude, then faultMix kinds in shuffled order with at
// most three faults active, every fault healed, so the cycle ends
// pristine and repeats.
func faultStormEngine(tb testing.TB, o *Observer) (*Engine, []stormEvent) {
	tb.Helper()
	const (
		k, flows, racks, cycle = 16, 500, 16, 64
		stormSeed              = 20220530
	)
	topo := topology.MustFatTree(k, nil)
	rng := rand.New(rand.NewSource(7919))
	base := workload.MustPairsClustered(topo, flows, racks, workload.DefaultIntraRack, rng)
	e, err := New(Config{PPDC: model.MustNew(topo, model.Options{}), SFC: model.NewSFC(3), Base: base, Mu: 1000, Observer: o})
	if err != nil {
		tb.Fatal(err)
	}

	faultMix := []fault.Kind{
		fault.Link, fault.Switch, fault.Link, fault.Degrade, fault.Link, fault.Switch, fault.Link, fault.Degrade,
		fault.Link, fault.Switch, fault.Link, fault.Degrade, fault.Link, fault.Switch, fault.Link, fault.Host,
	}
	prelude := []struct {
		kind fault.Kind
		heal int // index into the active list, -1 to inject
	}{
		{fault.Link, -1}, {fault.Degrade, -1}, {fault.Switch, -1},
		{heal: 2}, {heal: 1}, {heal: 0},
		{fault.Host, -1}, {heal: 0},
	}
	rng = rand.New(rand.NewSource(stormSeed))
	var (
		events []stormEvent
		active []fault.Fault
	)
	isActive := func(f fault.Fault) bool {
		for _, a := range active {
			if a.Kind == f.Kind && (a.U == f.U && a.V == f.V || a.U == f.V && a.V == f.U) {
				return true
			}
		}
		return false
	}
	link := func() (int, int) {
		u := topo.Switches[rng.Intn(len(topo.Switches))]
		nb := topo.Graph.Neighbors(u)
		return u, nb[rng.Intn(len(nb))].To
	}
	draw := func(kind fault.Kind) fault.Fault {
		switch kind {
		case fault.Link:
			u, v := link()
			return fault.Fault{Kind: fault.Link, U: u, V: v}
		case fault.Degrade:
			u, v := link()
			return fault.Fault{Kind: fault.Degrade, U: u, V: v, Factor: float64(2 + rng.Intn(7))}
		case fault.Switch:
			return fault.Fault{Kind: fault.Switch, U: topo.Switches[rng.Intn(len(topo.Switches))]}
		}
		return fault.Fault{Kind: fault.Host, U: topo.Hosts[rng.Intn(len(topo.Hosts))]}
	}
	inject := func(f fault.Fault) {
		active = append(active, f)
		events = append(events, stormEvent{inject: []fault.Fault{f}})
	}
	heal := func(j int) {
		f := active[j]
		active = append(active[:j], active[j+1:]...)
		f.Factor = 0 // a heal names the link, not the factor
		events = append(events, stormEvent{heal: []fault.Fault{f}})
	}
	var kinds []fault.Kind
	for len(kinds) < cycle/2-len(prelude)/2 {
		kinds = append(kinds, faultMix[len(kinds)%len(faultMix)])
	}
	rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	for _, step := range prelude {
		if step.heal >= 0 {
			heal(step.heal)
			continue
		}
		f := draw(step.kind)
		for isActive(f) {
			f = draw(step.kind)
		}
		inject(f)
	}
	for len(kinds) > 0 {
		if len(active) == 0 || len(active) < 3 && rng.Float64() < 0.6 {
			f := draw(kinds[0])
			if isActive(f) {
				continue
			}
			kinds = kinds[1:]
			inject(f)
		} else {
			heal(rng.Intn(len(active)))
		}
	}
	for len(active) > 0 {
		heal(0)
	}
	return e, events
}

// BenchmarkEngineFaultStorm times one event of faultStormEngine: the
// incremental APSP delta, the service plan, the cost-cache build on the
// degraded fabric and the mPareto repair consult. Before/after figures
// are in docs/ENGINE.md.
func BenchmarkEngineFaultStorm(b *testing.B) {
	e, events := faultStormEngine(b, nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[i%len(events)]
		if _, err := e.ApplyFaults(ctx, ev.inject, ev.heal); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStepAllocationBudget holds a healthy epoch to the garbage of ONE
// cost-cache user on ONE fabric: the consult reads the engine's cache and
// the DP tables it keeps, so an hour of diurnalEngine allocates ≈ 5 KB
// once the tables are filled (frontier points, placements, the published
// snapshot) and ≈ 8 KB averaged over these 50 hours, which fill them.
// Tables rebuilt per consult cost ≈ 15 KB an hour more, and each extra
// aggregation of the 2000-flow workload ≈ 140 KB, so either fails here.
func TestStepAllocationBudget(t *testing.T) {
	e, hours := diurnalEngine(t)
	const steps, budget = 50, 12 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		if _, err := e.Ingest(hours[i%len(hours)]); err != nil {
			t.Fatal(err)
		}
		res, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consulted {
			t.Fatalf("epoch %d did not consult: the budget would measure nothing", res.Epoch)
		}
	}
	runtime.ReadMemStats(&after)
	if perStep := (after.TotalAlloc - before.TotalAlloc) / steps; perStep > budget {
		t.Fatalf("one Ingest+Step allocates %d B, budget %d B: is the consult building its own cost cache again?", perStep, budget)
	}
}

// TestRoutedStepAllocationBudget holds a routed epoch to the garbage of
// its consult and snapshot: the route pass refills buffers the engine
// keeps and sorts nothing, so one op of flashCrowdEngine allocates
// ≈ 4 KB once a cycle has warmed them (the parent's pass allocated
// ≈ 125 KB more). Decisions, demands or stage sites allocated per epoch
// again, or the hottest-first link list built every epoch, fail here.
func TestRoutedStepAllocationBudget(t *testing.T) {
	e, ops := flashCrowdEngine(t, nil, 8)
	const budget = 8 << 10
	step := func(u []RateUpdate) {
		if _, err := e.Ingest(u); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range ops {
		step(u)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, u := range ops {
		step(u)
	}
	runtime.ReadMemStats(&after)
	perStep := (after.TotalAlloc - before.TotalAlloc) / uint64(len(ops))
	t.Logf("per op: %d B", perStep)
	if perStep > budget {
		t.Fatalf("one routed Ingest+Step allocates %d B, budget %d B: does the route pass allocate its decisions, demands or stage sites per epoch again, or build the hottest-first link list every epoch?", perStep, budget)
	}
}

// TestFaultEventAllocationBudget holds a fault event to the garbage of
// what its delta changed. One cycle of faultStormEngine — 64 events on
// the k=16 fat tree — allocates ≈ 487 KB and 654 objects per event at
// two procs: the repaired and derived APSP rows (the 448 the cost model
// reads, of 1 344), the view's weight vector over the fabric, one cost
// cache derived from the last, the ≈ 20 switch-closure rows its repair
// consult reads, and the consult. The parallel repair allocates per
// worker, so the test pins GOMAXPROCS to two and the budget holds on any
// host. The budget is that plus ≈ 3 %. Each of these fails here:
//   - a view that rebuilds its host, switch and per-rack membership
//     lists every event: ≈ 36 KB and 122 allocations more;
//   - one that copies every rack while a vertex is dead: ≈ 12 KB and 44
//     allocations more;
//   - a service plan whose served lists grow by append: ≈ 16 KB and 18
//     allocations more;
//   - a closure view that copies every row: ≈ 820 KB and 320 more;
//   - every APSP row repaired again: ≈ 500 KB and ≈ 790 more;
//   - a fabric cloned and frozen again per event: ≈ 120 KB more.
//
// A slot pass over the whole fabric allocates nothing more, labels
// computed afresh on a degrade-only event cost ≈ 3 KB, and maps in the
// service plan stay on the stack at these sizes, so none of them shows
// here: internal/fault's TestApplyDeltaReweighsOnlyChangedArcs pins the
// first two.
func TestFaultEventAllocationBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e, events := faultStormEngine(t, nil)
	const bytesBudget, allocBudget = 502_000, 674
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, ev := range events {
		if _, err := e.ApplyFaults(ctx, ev.inject, ev.heal); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	n := uint64(len(events))
	perBytes, perAllocs := (after.TotalAlloc-before.TotalAlloc)/n, (after.Mallocs-before.Mallocs)/n
	t.Logf("per event: %d B, %d allocs", perBytes, perAllocs)
	if perBytes > bytesBudget {
		t.Errorf("a fault event allocates %d B, budget %d B: does the view rebuild its membership lists (≈ 36 KB) or copy every rack (≈ 12 KB), the service plan grow its served lists by append (≈ 16 KB), the switch-closure view copy every row (≈ 820 KB), is every APSP row repaired again, or the fabric cloned and frozen again (≈ 120 KB)?", perBytes, bytesBudget)
	}
	if perAllocs > allocBudget {
		t.Errorf("a fault event makes %d allocations, budget %d: does the view rebuild its membership lists (122 more) or copy every rack (44 more), the service plan grow its served lists by append (18 more), the switch-closure view copy every row (320 more), or is every APSP row repaired again (≈ 1 600 in all)?", perAllocs, allocBudget)
	}
}

// TestFaultStormBuildsReadRows pins the rows faultStormEngine's matrices
// build: the 320 switches' and the 128 flow hosts' of 1 344 — the rows
// the cost model reads — after create and once the cycle ends pristine.
// In between, a fault that isolates a switch or a host, or leaves a host
// one re-priced link, leaves its row unbuilt until it is read again, and
// at most three faults are active. A matrix built in full, or a delta
// that repairs every row, fails here. The counts are the fault-storm
// ledger line's, whose exact values TestWorkLedger pins.
func TestFaultStormBuildsReadRows(t *testing.T) {
	w := faultStormCostCacheWork(t)
	if n, got := w["apsp_rows"], w["rows_built_create"]; n != 1344 || got != 448 {
		t.Fatalf("after create: %d of %d rows built, want 448 of 1344", got, n)
	}
	if lo, hi := w["rows_built_min"], w["rows_built_max"]; lo < 448-3 || hi > 448 {
		t.Fatalf("after an event: %d to %d rows built, want 445 to 448", lo, hi)
	}
	if active, got := w["faults_active_end"], w["rows_built_end"]; active != 0 || got != 448 {
		t.Fatalf("after the cycle (%d faults active): %d rows built, want 448", active, got)
	}
}
