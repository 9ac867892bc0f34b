package predict

import (
	"math"
	"math/rand"
	"testing"

	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/sim"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.5)
	for i := 0; i < 20; i++ {
		if err := e.Observe([]float64{10, 4}); err != nil {
			t.Fatal(err)
		}
	}
	f := e.Forecast()
	if math.Abs(f[0]-10) > 1e-4 || math.Abs(f[1]-4) > 1e-4 {
		t.Fatalf("forecast %v", f)
	}
}

func TestEWMASmoothing(t *testing.T) {
	e := NewEWMA(0.5)
	_ = e.Observe([]float64{0})
	_ = e.Observe([]float64{10})
	if f := e.Forecast(); f[0] != 5 {
		t.Fatalf("after 0,10 with α=0.5: %v, want 5", f[0])
	}
}

func TestEWMAErrors(t *testing.T) {
	e := NewEWMA(0)
	if err := e.Observe([]float64{1}); err == nil {
		t.Fatal("alpha 0 accepted")
	}
	e = NewEWMA(0.5)
	if e.Forecast() != nil {
		t.Fatal("forecast before observation")
	}
	_ = e.Observe([]float64{1, 2})
	if err := e.Observe([]float64{1}); err == nil {
		t.Fatal("shape change accepted")
	}
}

func TestLinearExtrapolates(t *testing.T) {
	l := NewLinear()
	if l.Forecast() != nil {
		t.Fatal("forecast before observation")
	}
	_ = l.Observe([]float64{4})
	if f := l.Forecast(); f[0] != 4 {
		t.Fatalf("single observation: %v", f)
	}
	_ = l.Observe([]float64{6})
	if f := l.Forecast(); f[0] != 8 { // 6 + (6-4)
		t.Fatalf("trend: %v, want 8", f)
	}
	// Negative extrapolations floor at zero.
	_ = l.Observe([]float64{1})
	if f := l.Forecast(); f[0] != 0 {
		t.Fatalf("floored: %v", f)
	}
	if err := l.Observe([]float64{1, 2}); err == nil {
		t.Fatal("shape change accepted")
	}
}

func TestPredictiveMigratorNeverWorseThanStaying(t *testing.T) {
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	rng := rand.New(rand.NewSource(1))
	base := workload.MustPairsClustered(ft, 24, 4, workload.DefaultIntraRack, rng)
	sched, err := workload.PaperBurst().Schedule(ft, base, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Config{
		PPDC: d, SFC: model.NewSFC(3), Base: base, Schedule: sched,
		Mu: 1e3, HourVolume: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	pred := &Migrator{Inner: migration.MPareto{}, Forecast: NewEWMA(0.6)}
	if pred.Name() != "mPareto+forecast" {
		t.Fatalf("name %q", pred.Name())
	}
	tr, err := s.RunVNF(pred)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Strategy != "mPareto+forecast" || len(tr.Steps) != s.Hours() {
		t.Fatalf("trace %q with %d steps over a %d-hour day", tr.Strategy, len(tr.Steps), s.Hours())
	}
	for _, st := range tr.Steps {
		if st.MeanLatency < 0 {
			t.Fatalf("negative latency at hour %d", st.Hour)
		}
	}
	frozen, err := s.RunFrozen()
	if err != nil {
		t.Fatal(err)
	}
	// The per-hour stay guard makes every hour at most the frozen cost of
	// the *current* placement, but across a day the predictive run must
	// at least not blow up: compare against frozen with slack for the
	// rare mispredicted migration hour.
	if tr.Total > 1.05*frozen.Total {
		t.Fatalf("predictive day %v far above frozen %v", tr.Total, frozen.Total)
	}
}

func TestPredictiveMigratorTracksReactive(t *testing.T) {
	// On the smooth burst schedule, forecast-driven mPareto should land
	// within a few percent of reactive mPareto (same inner algorithm,
	// shifted targeting).
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	rng := rand.New(rand.NewSource(2))
	base := workload.MustPairsClustered(ft, 32, 4, workload.DefaultIntraRack, rng)
	sched, err := workload.PaperBurst().Schedule(ft, base, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Config{
		PPDC: d, SFC: model.NewSFC(3), Base: base, Schedule: sched,
		Mu: 1e3, HourVolume: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	reactive, err := s.RunVNF(migration.MPareto{})
	if err != nil {
		t.Fatal(err)
	}
	predictive, err := s.RunVNF(&Migrator{Inner: migration.MPareto{}, Forecast: NewLinear()})
	if err != nil {
		t.Fatal(err)
	}
	if predictive.Total > 1.15*reactive.Total {
		t.Fatalf("predictive %v >15%% above reactive %v", predictive.Total, reactive.Total)
	}
}

func TestPredictiveMigratorPropagatesErrors(t *testing.T) {
	ft := topology.MustFatTree(2, nil)
	d := model.MustNew(ft, model.Options{})
	w := model.Workload{{Src: ft.Hosts[0], Dst: ft.Hosts[1], Rate: 1}}
	p := model.Placement{ft.Switches[0], ft.Switches[1]}
	bad := &Migrator{Inner: migration.MPareto{}, Forecast: NewEWMA(-1)}
	if _, _, err := bad.Migrate(d, w, model.NewSFC(2), p, 1); err == nil {
		t.Fatal("invalid forecaster accepted")
	}
}
