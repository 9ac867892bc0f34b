package sim

import (
	"math"
	"math/rand"
	"testing"

	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/topology"
	"vnfopt/internal/vmmig"
	"vnfopt/internal/workload"
)

func scenario(t *testing.T, trackLinks bool) *Simulator {
	t.Helper()
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	rng := rand.New(rand.NewSource(1))
	base := workload.MustPairsClustered(ft, 24, 4, workload.DefaultIntraRack, rng)
	sched, err := workload.PaperBurst().Schedule(ft, base, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		PPDC:       d,
		SFC:        model.NewSFC(3),
		Base:       base,
		Schedule:   sched,
		Mu:         1e3,
		HourVolume: 10,
		TrackLinks: trackLinks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	ft := topology.MustFatTree(2, nil)
	d := model.MustNew(ft, model.Options{})
	base := model.Workload{{Src: ft.Hosts[0], Dst: ft.Hosts[1], Rate: 1}}
	sched := [][]float64{{5}}
	ok := Config{PPDC: d, SFC: model.NewSFC(2), Base: base, Schedule: sched, Mu: 1}
	if _, err := New(ok); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mut := range map[string]func(Config) Config{
		"nil ppdc":       func(c Config) Config { c.PPDC = nil; return c },
		"empty schedule": func(c Config) Config { c.Schedule = nil; return c },
		"negative mu":    func(c Config) Config { c.Mu = -1; return c },
		"ragged":         func(c Config) Config { c.Schedule = [][]float64{{1, 2}}; return c },
		"negative rate":  func(c Config) Config { c.Schedule = [][]float64{{-1}}; return c },
		"silent":         func(c Config) Config { c.Schedule = [][]float64{{0}}; return c },
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

func TestRunFrozenMatchesManual(t *testing.T) {
	s := scenario(t, false)
	tr, err := s.RunFrozen()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) != s.Hours() {
		t.Fatalf("steps %d, hours %d", len(tr.Steps), s.Hours())
	}
	sum := 0.0
	for h := 1; h <= s.Hours(); h++ {
		want := s.cfg.PPDC.CommCost(s.HourWorkload(h), s.Initial())
		if math.Abs(tr.Steps[h-1].Cost-want) > 1e-9 {
			t.Fatalf("hour %d cost %v != %v", h, tr.Steps[h-1].Cost, want)
		}
		sum += want
	}
	if math.Abs(tr.Total-sum) > 1e-6 || tr.TotalMoves != 0 {
		t.Fatalf("totals %v/%d", tr.Total, tr.TotalMoves)
	}
	if !tr.Final.Equal(tr.Initial) {
		t.Fatal("frozen run changed placement")
	}
}

func TestRunVNFBeatsFrozen(t *testing.T) {
	s := scenario(t, false)
	mp, err := s.RunVNF(migration.MPareto{})
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := s.RunFrozen()
	if err != nil {
		t.Fatal(err)
	}
	if mp.Total > frozen.Total+1e-6 {
		t.Fatalf("mPareto %v worse than frozen %v", mp.Total, frozen.Total)
	}
	if mp.Strategy != "mPareto" {
		t.Fatalf("strategy %q", mp.Strategy)
	}
	// Moves recorded consistently with the placement delta.
	if mp.TotalMoves == 0 && !mp.Final.Equal(mp.Initial) {
		t.Fatal("placement changed with zero recorded moves")
	}
}

func TestRunVMKeepsVNFsFixed(t *testing.T) {
	s := scenario(t, false)
	tr, err := s.RunVM(vmmig.PLAN{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Final.Equal(s.Initial()) {
		t.Fatal("VM strategy moved VNFs")
	}
	if len(tr.Steps) != s.Hours() {
		t.Fatalf("steps %d", len(tr.Steps))
	}
}

func TestLinkTracking(t *testing.T) {
	s := scenario(t, true)
	tr, err := s.RunVNF(migration.MPareto{})
	if err != nil {
		t.Fatal(err)
	}
	sawLoad := false
	for _, st := range tr.Steps {
		if st.Links.Max > 0 {
			sawLoad = true
		}
		if st.Links.Max > tr.PeakLink {
			t.Fatalf("peak link %v below hour max %v", tr.PeakLink, st.Links.Max)
		}
	}
	if !sawLoad {
		t.Fatal("no link loads recorded despite TrackLinks")
	}
	// Without tracking the reports stay zero.
	s2 := scenario(t, false)
	tr2, err := s2.RunFrozen()
	if err != nil {
		t.Fatal(err)
	}
	if tr2.PeakLink != 0 {
		t.Fatal("link peak recorded without TrackLinks")
	}
}

func TestStrategiesShareIdenticalTraffic(t *testing.T) {
	s := scenario(t, false)
	a, err := s.RunFrozen()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunFrozen()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Steps {
		if a.Steps[i].Cost != b.Steps[i].Cost {
			t.Fatalf("hour %d differs between identical runs", i+1)
		}
	}
}

func TestMeanLatency(t *testing.T) {
	s := scenario(t, false)
	tr, err := s.RunFrozen()
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= s.Hours(); h++ {
		w := s.HourWorkload(h)
		st := tr.Steps[h-1]
		if w.TotalRate() == 0 {
			if st.MeanLatency != 0 {
				t.Fatalf("hour %d: latency %v in silent hour", h, st.MeanLatency)
			}
			continue
		}
		want := st.Cost / w.TotalRate()
		if math.Abs(st.MeanLatency-want) > 1e-9 {
			t.Fatalf("hour %d: latency %v, want %v", h, st.MeanLatency, want)
		}
		// A policy-preserving path is at least ingress+chain+egress hops.
		if st.MeanLatency < 1 {
			t.Fatalf("hour %d: implausible latency %v", h, st.MeanLatency)
		}
	}
}
