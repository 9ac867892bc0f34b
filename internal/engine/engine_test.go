package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vnfopt/internal/fault"
	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/obs"
	"vnfopt/internal/placement"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// fixture builds a seeded k=4 fat-tree scenario: 24 clustered flows, a
// 3-VNF chain, and the PaperBurst hourly schedule as the rate stream.
func fixture(t testing.TB, seed int64) (*model.PPDC, model.Workload, [][]float64) {
	t.Helper()
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	rng := rand.New(rand.NewSource(seed))
	base := workload.MustPairsClustered(ft, 24, 4, workload.DefaultIntraRack, rng)
	sched, err := workload.PaperBurst().Schedule(ft, base, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		base[i].Rate = sched[0][i]
	}
	return d, base, sched
}

func newEngine(t testing.TB, pol Policy, seed int64) (*Engine, [][]float64) {
	return newEngineCfg(t, seed, Config{Policy: pol})
}

// newEngineCfg builds an engine over the seeded fixture scenario; cfg
// supplies the optional fields (policy, migrator, observer, ...).
func newEngineCfg(t testing.TB, seed int64, cfg Config) (*Engine, [][]float64) {
	t.Helper()
	d, base, sched := fixture(t, seed)
	cfg.PPDC, cfg.SFC, cfg.Base, cfg.Mu = d, model.NewSFC(3), base, 1e3
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, sched
}

// histogramCount reads the sample named sample (a histogram's _count
// with its labels) from reg's Prometheus exposition.
func histogramCount(t *testing.T, reg *obs.Registry, sample string) int {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, sample+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no %s sample", sample)
	return 0
}

func hourUpdates(rates []float64) []RateUpdate {
	out := make([]RateUpdate, len(rates))
	for i, r := range rates {
		out[i] = RateUpdate{Flow: i, Rate: r}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	d, base, _ := fixture(t, 1)
	ok := Config{PPDC: d, SFC: model.NewSFC(3), Base: base, Mu: 1}
	if _, err := New(ok); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mut := range map[string]func(Config) Config{
		"nil ppdc":    func(c Config) Config { c.PPDC = nil; return c },
		"empty sfc":   func(c Config) Config { c.SFC = model.SFC{}; return c },
		"negative mu": func(c Config) Config { c.Mu = -1; return c },
		"no flows":    func(c Config) Config { c.Base = nil; return c },
		"bad initial": func(c Config) Config { c.Initial = model.Placement{-1, -1, -1}; return c },
		"bad workload": func(c Config) Config {
			c.Base = model.Workload{{Src: -1, Dst: 0, Rate: 1}}
			return c
		},
	} {
		if _, err := New(mut(ok)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestAlwaysPolicyMatchesDirectMigratorLoop: with the always-consult
// policy the engine's epoch loop is exactly the batch simulator's hourly
// loop — identical calls, identical reported costs, identical placements.
func TestAlwaysPolicyMatchesDirectMigratorLoop(t *testing.T) {
	e, sched := newEngine(t, Policy{}, 2)
	d, base, _ := fixture(t, 2)
	mig := migration.MPareto{}
	p := e.Snapshot().Placement

	for h, rates := range sched {
		if _, err := e.Ingest(hourUpdates(rates)); err != nil {
			t.Fatal(err)
		}
		res, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		w := base.WithRates(rates)
		m, ct, err := mig.Migrate(d, w, model.NewSFC(3), p, 1e3)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consulted {
			t.Fatalf("hour %d: always policy skipped the migrator", h+1)
		}
		if res.TotalCost != ct {
			t.Fatalf("hour %d: engine cost %v != direct loop %v", h+1, res.TotalCost, ct)
		}
		if !res.Placement.Equal(m) {
			t.Fatalf("hour %d: engine placement %v != direct loop %v", h+1, res.Placement, m)
		}
		p = m
	}
}

// TestDriftTriggerGatesMigration: with hysteresis the migrator runs only
// on drift, migrations still happen on this bursty schedule, and the cost
// trajectory stays between the always-migrate and never-migrate runs.
func TestDriftTriggerGatesMigration(t *testing.T) {
	always, sched := newEngine(t, Policy{}, 3)
	drift, _ := newEngine(t, Policy{Hysteresis: 1.1}, 3)
	frozen, _ := newEngine(t, Policy{Hysteresis: math.Inf(1)}, 3)

	var totAlways, totDrift, totFrozen float64
	for _, rates := range sched {
		for _, e := range []*Engine{always, drift, frozen} {
			if _, err := e.Ingest(hourUpdates(rates)); err != nil {
				t.Fatal(err)
			}
		}
		ra, err := always.Step()
		if err != nil {
			t.Fatal(err)
		}
		rd, err := drift.Step()
		if err != nil {
			t.Fatal(err)
		}
		rf, err := frozen.Step()
		if err != nil {
			t.Fatal(err)
		}
		totAlways += ra.TotalCost
		totDrift += rd.TotalCost
		totFrozen += rf.TotalCost
		if rf.Consulted {
			t.Fatal("infinite hysteresis consulted the migrator")
		}
	}
	ma, md, mf := always.Metrics(), drift.Metrics(), frozen.Metrics()
	if mf.Migrations != 0 {
		t.Fatalf("frozen engine migrated %d times", mf.Migrations)
	}
	if md.Migrations == 0 {
		t.Fatal("drift trigger never fired on the burst schedule")
	}
	if md.Consults >= ma.Consults {
		t.Fatalf("drift consults %d not below always consults %d", md.Consults, ma.Consults)
	}
	// Hysteresis trades some cost for stability; it must stay within the
	// frozen bound and the always run must not lose to it.
	if totDrift > totFrozen*1.0001 {
		t.Fatalf("drift total %v worse than frozen %v", totDrift, totFrozen)
	}
	if totAlways > totDrift*1.0001 {
		t.Fatalf("always total %v worse than drift %v", totAlways, totDrift)
	}
}

// TestCooldownSpacesMigrations: after a commit the trigger stays quiet for
// Cooldown epochs no matter the drift.
func TestCooldownSpacesMigrations(t *testing.T) {
	const cd = 3
	e, sched := newEngine(t, Policy{Hysteresis: 1.01, Cooldown: cd}, 4)
	last := -1
	for _, rates := range sched {
		if _, err := e.Ingest(hourUpdates(rates)); err != nil {
			t.Fatal(err)
		}
		res, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if res.Migrated {
			if last >= 0 && res.Epoch-last <= cd {
				t.Fatalf("migrations at epochs %d and %d violate cooldown %d", last, res.Epoch, cd)
			}
			last = res.Epoch
		}
	}
	if last < 0 {
		t.Fatal("no migration at all under mild hysteresis")
	}
}

// TestBudgetCapsEpochMoves: the per-migration budget holds at every epoch.
// Budget 2 on a 3-VNF chain is binding (the unbudgeted run moves all
// three at once) yet still usable — single moves never pay on this chain,
// so a budget of 1 would correctly freeze the placement instead.
func TestBudgetCapsEpochMoves(t *testing.T) {
	e, sched := newEngine(t, Policy{Budget: 2}, 5)
	if e.MigratorName() != "mPareto(budget=2)" {
		t.Fatalf("migrator %q", e.MigratorName())
	}
	moved := 0
	for _, rates := range sched {
		if _, err := e.Ingest(hourUpdates(rates)); err != nil {
			t.Fatal(err)
		}
		res, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if res.Moves > 2 {
			t.Fatalf("epoch %d moved %d VNFs over budget 2", res.Epoch, res.Moves)
		}
		moved += res.Moves
	}
	if moved == 0 {
		t.Fatal("budgeted engine never moved")
	}
}

// TestCacheTracksScalarOracle: on dense epochs (every flow changes) and
// sparse ones (one flow) alike, the cost the engine reports from its cache
// equals a scalar re-evaluation of the live rates.
func TestCacheTracksScalarOracle(t *testing.T) {
	e, sched := newEngine(t, Policy{Hysteresis: math.Inf(1)}, 6)
	d, base, _ := fixture(t, 6)
	w := base.WithRates(sched[1])
	step := func(name string, updates []RateUpdate) {
		t.Helper()
		if _, err := e.Ingest(updates); err != nil {
			t.Fatal(err)
		}
		res, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		want := d.CommCost(w, res.Placement)
		if math.Abs(res.CommCost-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("%s: cache cost %v != scalar %v", name, res.CommCost, want)
		}
	}
	step("dense epoch", hourUpdates(sched[1]))
	for i := 0; i < 5; i++ {
		w[i].Rate += 7
		step(fmt.Sprintf("sparse epoch %d", i), []RateUpdate{{Flow: i, Rate: w[i].Rate}})
	}
}

// TestCacheIsFunctionOfRates: whatever mix of sparse and dense ingests,
// steps, faults and heals brought the engine here, its cost cache holds
// the bits a fresh aggregation of the served workload holds — and an
// epoch that changed no served rate did not rebuild it.
func TestCacheIsFunctionOfRates(t *testing.T) {
	r := obs.NewRegistry()
	e, sched := newEngineCfg(t, 9, Config{Observer: NewObserver(r, nil, "t")})
	rebuilds := r.Counter(`vnfopt_cache_rebuilds_total{scenario="t"}`)
	check := func(what string) {
		t.Helper()
		fresh := e.d.NewWorkloadCache(e.servedWorkload())
		in, eg := e.cache.EndpointCosts()
		inF, egF := fresh.EndpointCosts()
		if !slices.Equal(in, inF) || !slices.Equal(eg, egF) ||
			e.cache.TotalRate() != fresh.TotalRate() || e.cache.CommCost(nil) != fresh.CommCost(nil) {
			t.Fatalf("%s: cache differs from a fresh aggregation of the served workload", what)
		}
		// What the consult is handed is that cache's own: the serving
		// model and the served flows, nothing assembled beside it.
		if pr := e.cache.Problem(e.cfg.SFC); pr.PPDC != e.d || !slices.Equal(pr.Workload, e.servedWorkload()) {
			t.Fatalf("%s: the cache's Problem is not (serving model, served workload)", what)
		}
	}
	ingest := func(what string, updates []RateUpdate) {
		t.Helper()
		if _, err := e.Ingest(updates); err != nil {
			t.Fatal(err)
		}
		check(what + ": ingest")
	}
	// step closes an epoch and reports whether it rebuilt the cache.
	step := func(what string) bool {
		t.Helper()
		before := rebuilds.Value()
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		check(what + ": step")
		return rebuilds.Value() > before
	}
	faults := func(what string, inject, heal []fault.Fault) {
		t.Helper()
		if _, err := e.ApplyFaults(context.Background(), inject, heal); err != nil {
			t.Fatal(err)
		}
		check(what)
	}
	rng := rand.New(rand.NewSource(4))
	sparse := func() []RateUpdate {
		// Rates no float sums exactly, one of them landing on a flow twice.
		f := rng.Intn(e.Flows())
		return []RateUpdate{{Flow: f, Rate: 100 * rng.Float64()}, {Flow: rng.Intn(e.Flows()), Rate: 0.1 * rng.Float64()}, {Flow: f, Rate: 100 * rng.Float64()}}
	}

	for h := 1; h <= 12; h++ {
		if h%4 == 0 {
			ingest("dense", hourUpdates(sched[h]))
		} else {
			ingest("sparse", sparse())
		}
		if !step("healthy") {
			t.Fatalf("epoch %d changed rates and rebuilt nothing", h)
		}
	}
	ingest("resend", hourUpdates(e.flows.Rates()))
	if step("resend") {
		t.Fatal("an epoch that changed no rate rebuilt the cache")
	}

	host := []fault.Fault{{Kind: fault.Host, U: e.cfg.Base[0].Src}}
	faults("inject", host, nil)
	if len(e.unserved) == 0 {
		t.Fatal("killing a flow endpoint unserved nothing")
	}
	var dark []RateUpdate
	for _, u := range e.unserved {
		dark = append(dark, RateUpdate{Flow: u.Flow, Rate: 100 * rng.Float64()})
	}
	ingest("unserved", dark)
	if step("unserved") {
		t.Fatal("an epoch that changed only unserved flows rebuilt the cache")
	}
	ingest("degraded", append(sparse(), dark[0]))
	if !step("degraded") {
		t.Fatal("a served rate changed while degraded and nothing was rebuilt")
	}
	ingest("pending across the heal", sparse())
	faults("heal", nil, host)
	if e.d != e.cfg.PPDC {
		t.Fatal("healed engine serves a model other than its pristine PPDC")
	}
	ingest("healed", sparse())
	step("healed")
}

// TestSnapshotAndMetrics: snapshots are consistent and metrics monotonic.
func TestSnapshotAndMetrics(t *testing.T) {
	e, sched := newEngine(t, Policy{}, 7)
	s0 := e.Snapshot()
	if s0.Epoch != 0 || s0.Migrations != 0 || len(s0.Placement) != 3 {
		t.Fatalf("initial snapshot %+v", s0)
	}
	for h, rates := range sched {
		if _, err := e.Ingest(hourUpdates(rates)); err != nil {
			t.Fatal(err)
		}
		res, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		s := e.Snapshot()
		if s.Epoch != h+1 || !s.Placement.Equal(res.Placement) {
			t.Fatalf("hour %d: snapshot %+v vs result %+v", h+1, s, res)
		}
		if s.CommCost != res.CommCost {
			t.Fatalf("hour %d: snapshot cost %v != result %v", h+1, s.CommCost, res.CommCost)
		}
	}
	m := e.Metrics()
	if m.Epochs != len(sched) || len(m.Trajectory) != len(sched) {
		t.Fatalf("metrics %+v", m)
	}
	if m.Consults != len(sched) {
		t.Fatalf("always policy consults %d != %d", m.Consults, len(sched))
	}
	// The returned metrics are a copy: mutating them must not leak back.
	m.Trajectory[0] = -1
	if e.Metrics().Trajectory[0] == -1 {
		t.Fatal("Metrics returned shared trajectory storage")
	}
}

// TestStateRoundTrip: State → JSON → resume reproduces the engine —
// identical snapshot, and identical behaviour on the remaining stream.
func TestStateRoundTrip(t *testing.T) {
	pol := Policy{Hysteresis: 1.05, Cooldown: 1}
	a, sched := newEngine(t, pol, 8)
	half := len(sched) / 2
	for _, rates := range sched[:half] {
		if _, err := a.Ingest(hourUpdates(rates)); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Step(); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	d, base, _ := fixture(t, 8)
	b, err := ResumeJSON(Config{PPDC: d, SFC: model.NewSFC(3), Base: base, Mu: 1e3, Policy: pol}, blob)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.Epoch != sb.Epoch || !sa.Placement.Equal(sb.Placement) ||
		sa.CommittedEpoch != sb.CommittedEpoch || sa.Migrations != sb.Migrations {
		t.Fatalf("resumed snapshot %+v != original %+v", sb, sa)
	}
	if math.Abs(sa.CommCost-sb.CommCost) > 1e-9*math.Max(1, sa.CommCost) {
		t.Fatalf("resumed cost %v != %v", sb.CommCost, sa.CommCost)
	}
	for h, rates := range sched[half:] {
		for _, e := range []*Engine{a, b} {
			if _, err := e.Ingest(hourUpdates(rates)); err != nil {
				t.Fatal(err)
			}
		}
		ra, err := a.Step()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ra.Placement.Equal(rb.Placement) || ra.Migrated != rb.Migrated {
			t.Fatalf("post-resume hour %d diverged: %+v vs %+v", h+1, ra, rb)
		}
		if math.Abs(ra.TotalCost-rb.TotalCost) > 1e-9*math.Max(1, ra.TotalCost) {
			t.Fatalf("post-resume hour %d cost %v != %v", h+1, rb.TotalCost, ra.TotalCost)
		}
	}

	// Corrupt states are rejected.
	if _, err := ResumeJSON(Config{PPDC: d, SFC: model.NewSFC(3), Base: base, Mu: 1e3}, []byte("{")); err == nil {
		t.Fatal("truncated state accepted")
	}
	if _, err := resume(Config{PPDC: d, SFC: model.NewSFC(3), Base: base[:3], Mu: 1e3}, a.State()); err == nil {
		t.Fatal("mismatched flow count accepted")
	}
	if _, err := resume(Config{PPDC: d, SFC: model.NewSFC(3), Base: base, Mu: 1e3}, &State{Rates: make([]float64, len(base))}); err == nil {
		t.Fatal("state without placement accepted")
	}
}

// TestWithInitialAdoptsPlacement: Config.Initial skips the placer run.
func TestWithInitialAdoptsPlacement(t *testing.T) {
	d, base, _ := fixture(t, 2)
	ref, err := New(Config{PPDC: d, SFC: model.NewSFC(3), Base: base, Mu: 1e3})
	if err != nil {
		t.Fatal(err)
	}
	p0 := ref.Snapshot().Placement
	e, err := New(Config{PPDC: d, SFC: model.NewSFC(3), Base: base, Mu: 1e3, Initial: p0})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Snapshot().Placement.Equal(p0) {
		t.Fatalf("initial %v, want adopted %v", e.Snapshot().Placement, p0)
	}
}

// TestWithObserverWiring: a live Config.Observer sees epochs, ingests,
// cache activity, and migration events flow through the engine, and the
// instrumented solver and migrator sharing its registry count one
// placement at New and one consult per epoch of the zero policy.
func TestWithObserverWiring(t *testing.T) {
	r := obs.NewRegistry()
	ev := obs.NewEventLog(8)
	e, sched := newEngineCfg(t, 3, Config{
		Observer: NewObserver(r, ev, "t"),
		Placer:   obs.InstrumentedSolver{Inner: placement.DP{}, M: obs.NewSolverMetrics(r, "DP")},
		Migrator: obs.InstrumentedMigrator{Inner: migration.MPareto{}, M: obs.NewMigratorMetrics(r, "mPareto")},
	})
	moves := 0
	for h := 0; h < 6; h++ {
		if _, err := e.Ingest(hourUpdates(sched[h])); err != nil {
			t.Fatal(err)
		}
		res, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		moves += res.Moves
	}
	l := `{scenario="t"}`
	if got := r.Counter("vnfopt_engine_epochs_total" + l).Value(); got != 6 {
		t.Fatalf("epochs counter %d, want 6", got)
	}
	if got := histogramCount(t, r, "vnfopt_engine_epoch_seconds_count"+l); got != 6 {
		t.Fatalf("epoch histogram count %d, want 6", got)
	}
	if got := r.Counter("vnfopt_engine_updates_total" + l).Value(); got != int64(6*e.Flows()) {
		t.Fatalf("updates counter %d, want %d", got, 6*e.Flows())
	}
	if r.Counter("vnfopt_cache_rebuilds_total"+l).Value() == 0 {
		t.Fatal("no cache accounting reached the observer")
	}
	if got := r.Counter(`vnfopt_solver_calls_total{solver="DP"}`).Value(); got != 1 {
		t.Fatalf("solver calls %d, want 1", got)
	}
	if got := r.Counter(`vnfopt_migrator_calls_total{migrator="mPareto"}`).Value(); got != 6 {
		t.Fatalf("migrator calls %d, want 6", got)
	}
	if moves > 0 {
		if got := r.Counter("vnfopt_engine_moves_total" + l).Value(); got != int64(moves) {
			t.Fatalf("moves counter %d, want %d", got, moves)
		}
		if ev.Total() == 0 {
			t.Fatal("migrations produced no events")
		}
		for _, event := range ev.Events() {
			if event.Type != "migration" {
				t.Fatalf("unexpected event %+v", event)
			}
		}
	}
	if drift := r.Gauge("vnfopt_engine_drift_ratio" + l).Value(); drift <= 0 {
		t.Fatalf("drift gauge %v, want > 0", drift)
	}
}

// TestMetricsCountCoalescedUpdates: duplicate flow ids in one epoch are
// coalesced and surfaced both in Metrics and through the observer.
func TestMetricsCountCoalescedUpdates(t *testing.T) {
	r := obs.NewRegistry()
	e, sched := newEngineCfg(t, 4, Config{Observer: NewObserver(r, nil, "c")})
	ups := hourUpdates(sched[0])
	ups = append(ups, RateUpdate{Flow: 0, Rate: sched[0][0] + 1}) // duplicate
	if _, err := e.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().UpdatesCoalesced; got != 1 {
		t.Fatalf("UpdatesCoalesced %d, want 1", got)
	}
	if got := r.Counter(`vnfopt_engine_updates_coalesced_total{scenario="c"}`).Value(); got != 1 {
		t.Fatalf("coalesced counter %d, want 1", got)
	}
}

// TestStepFailsOnNonFiniteCost: a rate whose cost overflows float64
// leaves no finite C_a (or C_t) to decide on. The epoch fails and
// commits nothing, whatever the migrator does with the overflow — the
// exact search swallows its failed seed and would otherwise hand +Inf
// back as the best cost — so no Inf ever reaches the metrics, and the
// state stays encodable. Restoring the rate lets the engine carry on.
// Settled follows along: false from the ingest until a step closes the
// epoch, the failed one — which folded the rates and left it open — not
// counting.
func TestStepFailsOnNonFiniteCost(t *testing.T) {
	for _, mig := range []migration.Migrator{
		migration.MPareto{},
		migration.NoMigration{},
		migration.Exhaustive{NodeBudget: 50, Seed: migration.MPareto{}},
	} {
		t.Run(mig.Name(), func(t *testing.T) {
			e, sched := newEngineCfg(t, 4, Config{Migrator: mig})
			if _, err := e.Ingest([]RateUpdate{{Flow: 1, Rate: 1e308}}); err != nil {
				t.Fatal(err)
			}
			before := e.Snapshot()
			if e.Settled() {
				t.Fatal("settled with an update pending")
			}
			if res, err := e.Step(); err == nil {
				t.Fatalf("step over an overflowing rate succeeded: %+v", res)
			}
			if e.Settled() {
				t.Fatal("settled behind a failed step")
			}
			if after := e.Snapshot(); after.Epoch != before.Epoch || !after.Placement.Equal(before.Placement) {
				t.Fatalf("failed step committed something: %+v -> %+v", before, after)
			}
			for _, c := range e.Metrics().Trajectory {
				if math.IsInf(c, 0) || math.IsNaN(c) {
					t.Fatalf("non-finite cost in the trajectory: %v", e.Metrics().Trajectory)
				}
			}
			if _, err := e.MarshalState(); err != nil {
				t.Fatalf("state not encodable after the failed step: %v", err)
			}
			if _, err := e.Ingest(hourUpdates(sched[1])); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Step(); err != nil {
				t.Fatalf("step after restoring the rates: %v", err)
			}
			if !e.Settled() {
				t.Fatal("not settled behind the step that closed the epoch")
			}
		})
	}
}

// TestResumeBitIdenticalAtAnySavePoint: the cost cache is rebuilt from
// the rates, never summed in the order updates arrived, so an engine and
// one resumed from its State carry on bit for bit the same — under sparse
// updates with rates no float sums exactly, and with nothing done to the
// saved engine where the state was taken.
func TestResumeBitIdenticalAtAnySavePoint(t *testing.T) {
	d, base, _ := fixture(t, 8)
	cfg := Config{PPDC: d, SFC: model.NewSFC(3), Base: base, Mu: 1e3}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	comparable := func(e *Engine) string {
		st := e.State()
		st.Metrics.LastEpoch, st.Metrics.TotalEpoch = 0, 0
		blob, err := json.Marshal(struct {
			State *State
			Snap  *Snapshot
		}{st, e.Snapshot()})
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	rng := rand.New(rand.NewSource(3))
	var b *Engine
	for epoch := 1; epoch <= 40; epoch++ {
		updates := []RateUpdate{
			{Flow: rng.Intn(len(base)), Rate: 100 * rng.Float64()},
			{Flow: rng.Intn(len(base)), Rate: 0.1 * float64(epoch)},
		}
		for _, e := range []*Engine{a, b} {
			if e == nil {
				continue
			}
			if _, err := e.Ingest(updates); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if b != nil {
			if got, want := comparable(b), comparable(a); got != want {
				t.Fatalf("epoch %d: resumed engine drifted from the one it was saved from\n got: %s\nwant: %s", epoch, got, want)
			}
		}
		if epoch%8 == 5 {
			blob, err := a.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if b, err = ResumeJSON(cfg, blob); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRetainedTablesMatchFresh replays two days of diurnalEngine, whose
// every epoch consults Algorithm 5 (mPareto over Algorithm 3) on the one
// cost cache the engine keeps — and with it the Algorithm-2 tables that
// cache retains across epochs. After every Step the committed placement
// and C_t must be, bit for bit, what mPareto returns on a fresh Problem
// (fresh cache, fresh tables) from the previous placement. C_t also keeps
// Eq. 8's stay-put bound: frontier 1 is the previous placement at C_b = 0,
// so C_t ≤ C_a(p_prev) — to 1e-12 relative, as the frontier sums Λ flow
// by flow and the cache pair by pair.
func TestRetainedTablesMatchFresh(t *testing.T) {
	e, hours := diurnalEngine(t)
	ctx := context.Background()
	for h := 0; h < 2*len(hours); h++ {
		prev := e.p.Clone()
		if _, err := e.Ingest(hours[h%len(hours)]); err != nil {
			t.Fatal(err)
		}
		res, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consulted {
			t.Fatalf("hour %d did not consult", h)
		}
		pr, err := e.d.NewProblem(e.servedWorkload(), e.cfg.SFC)
		if err != nil {
			t.Fatal(err)
		}
		m, ct, err := migration.MPareto{}.MigrateProblem(ctx, pr, prev, e.cfg.Mu)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Placement, m) || math.Float64bits(res.TotalCost) != math.Float64bits(ct) {
			t.Fatalf("hour %d: engine committed %v at C_t %v, a fresh consult %v at %v", h, res.Placement, res.TotalCost, m, ct)
		}
		if stay := pr.Cache.CommCost(prev); res.TotalCost > stay*(1+1e-12) {
			t.Fatalf("hour %d: C_t %v above the stay-put C_a %v", h, res.TotalCost, stay)
		}
	}
}
