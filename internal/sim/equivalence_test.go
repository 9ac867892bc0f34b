package sim

import (
	"math"
	"testing"

	"vnfopt/internal/engine"
	"vnfopt/internal/migration"
)

// legacyRunVNF is the pre-engine hourly loop, kept verbatim as the
// refactor oracle: migrator consulted every hour, hour cost = the
// migrator-reported C_t.
func legacyRunVNF(s *Simulator, mig migration.Migrator) (*Trace, error) {
	tr := &Trace{Strategy: mig.Name(), Initial: s.Initial()}
	p := s.p0.Clone()
	for h := range s.hours {
		w := s.hours[h]
		m, ct, err := mig.Migrate(s.cfg.PPDC, w, s.cfg.SFC, p, s.cfg.Mu)
		if err != nil {
			return nil, err
		}
		step := Step{
			Hour:        h + 1,
			Cost:        ct,
			Moves:       migration.MigrationCount(p, m),
			MeanLatency: s.meanLatency(w, m),
		}
		if err := s.track(&step, w, p, m); err != nil {
			return nil, err
		}
		tr.record(step)
		p = m
	}
	tr.Final = p
	return tr, nil
}

// TestEngineReproducesLegacyLoopBitForBit: on the seeded k=4 fat-tree
// burst scenario, the engine-driven RunVNF yields the *identical* hourly
// cost trajectory, move counts, and placements as the pre-refactor loop —
// no tolerance. The engine feeds the migrator the same workload values
// and placements hour by hour, so every float on the reported path is the
// same computation.
func TestEngineReproducesLegacyLoopBitForBit(t *testing.T) {
	for _, mig := range []migration.Migrator{migration.MPareto{}, migration.NoMigration{}} {
		s := scenario(t, false)
		want, err := legacyRunVNF(s, mig)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.RunVNF(mig)
		if err != nil {
			t.Fatal(err)
		}
		if got.Strategy != want.Strategy {
			t.Fatalf("strategy %q != legacy %q", got.Strategy, want.Strategy)
		}
		if len(got.Steps) != len(want.Steps) {
			t.Fatalf("%s: %d steps != legacy %d", mig.Name(), len(got.Steps), len(want.Steps))
		}
		for h := range want.Steps {
			g, w := got.Steps[h], want.Steps[h]
			if g.Cost != w.Cost {
				t.Fatalf("%s hour %d: cost %v != legacy %v", mig.Name(), h+1, g.Cost, w.Cost)
			}
			if g.Moves != w.Moves {
				t.Fatalf("%s hour %d: moves %d != legacy %d", mig.Name(), h+1, g.Moves, w.Moves)
			}
			if g.MeanLatency != w.MeanLatency {
				t.Fatalf("%s hour %d: latency %v != legacy %v", mig.Name(), h+1, g.MeanLatency, w.MeanLatency)
			}
		}
		if got.Total != want.Total || got.TotalMoves != want.TotalMoves {
			t.Fatalf("%s totals (%v,%d) != legacy (%v,%d)",
				mig.Name(), got.Total, got.TotalMoves, want.Total, want.TotalMoves)
		}
		if !got.Final.Equal(want.Final) || !got.Initial.Equal(want.Initial) {
			t.Fatalf("%s placements diverged from legacy", mig.Name())
		}
	}
}

// TestEngineReproducesLegacyWithLinkTracking repeats the check with
// per-hour link reports on, covering the track path's placement
// threading. Per-link loads and their max are deterministic; Total and
// Mean sum a map in iteration order, so those two fields are compared to
// reassociation tolerance rather than bit-for-bit (two legacy runs
// already differ there).
func TestEngineReproducesLegacyWithLinkTracking(t *testing.T) {
	s := scenario(t, true)
	want, err := legacyRunVNF(s, migration.MPareto{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.RunVNF(migration.MPareto{})
	if err != nil {
		t.Fatal(err)
	}
	if got.PeakLink != want.PeakLink {
		t.Fatalf("peak link %v != legacy %v", got.PeakLink, want.PeakLink)
	}
	closeRel := func(a, b float64) bool {
		scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
		return math.Abs(a-b) <= 1e-9*scale
	}
	for h := range want.Steps {
		g, w := got.Steps[h].Links, want.Steps[h].Links
		if g.Links != w.Links || g.Max != w.Max {
			t.Fatalf("hour %d link report diverged: %+v vs %+v", h+1, g, w)
		}
		if !closeRel(g.Total, w.Total) || !closeRel(g.Mean, w.Mean) {
			t.Fatalf("hour %d link totals diverged: %+v vs %+v", h+1, g, w)
		}
	}
}

// TestRunEngineDriftPolicy: a hysteresis policy produces a valid trace
// that migrates less often than the always policy and never beats it by
// more than the stability trade allows on this scenario.
func TestRunEngineDriftPolicy(t *testing.T) {
	s := scenario(t, false)
	always, err := s.RunVNF(migration.MPareto{})
	if err != nil {
		t.Fatal(err)
	}
	drift, err := s.RunEngine(migration.MPareto{}, engine.Policy{Hysteresis: 1.1, Cooldown: 1})
	if err != nil {
		t.Fatal(err)
	}
	if drift.TotalMoves >= always.TotalMoves {
		t.Fatalf("drift moved %d, always moved %d", drift.TotalMoves, always.TotalMoves)
	}
	if drift.TotalMoves == 0 {
		t.Fatal("drift policy never migrated on the burst schedule")
	}
	frozen, err := s.RunFrozen()
	if err != nil {
		t.Fatal(err)
	}
	if drift.Total > frozen.Total*1.0001 {
		t.Fatalf("drift total %v worse than frozen %v", drift.Total, frozen.Total)
	}
}
