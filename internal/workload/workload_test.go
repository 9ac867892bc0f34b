package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

func TestRateMix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	var light, medium, heavy int
	for i := 0; i < n; i++ {
		r := Rate(rng)
		switch {
		case r < 0 || r > RateMax:
			t.Fatalf("rate %v outside [0,%d]", r, RateMax)
		case r < LightHi:
			light++
		case r <= MediumHi:
			medium++
		default:
			heavy++
		}
	}
	if f := float64(light) / n; math.Abs(f-LightFrac) > 0.01 {
		t.Errorf("light fraction = %.3f, want ≈%.2f", f, LightFrac)
	}
	if f := float64(medium) / n; math.Abs(f-MediumFrac) > 0.01 {
		t.Errorf("medium fraction = %.3f, want ≈%.2f", f, MediumFrac)
	}
	if f := float64(heavy) / n; math.Abs(f-HeavyFrac) > 0.005 {
		t.Errorf("heavy fraction = %.3f, want ≈%.2f", f, HeavyFrac)
	}
}

func TestRatesLength(t *testing.T) {
	rs := Rates(17, rand.New(rand.NewSource(2)))
	if len(rs) != 17 {
		t.Fatalf("len = %d", len(rs))
	}
}

func TestPairsIntraRackFraction(t *testing.T) {
	ft := topology.MustFatTree(8, nil)
	rackOf := map[int]int{}
	for r, hosts := range ft.Racks {
		for _, h := range hosts {
			rackOf[h] = r
		}
	}
	rng := rand.New(rand.NewSource(3))
	w := MustPairs(ft, 20000, DefaultIntraRack, rng)
	intra := 0
	for _, f := range w {
		if rackOf[f.Src] == rackOf[f.Dst] {
			intra++
		}
	}
	frac := float64(intra) / float64(len(w))
	// 80% forced intra-rack plus a small accidental-collision contribution
	// from the uniform 20%; expect a bit above 0.80.
	if frac < 0.79 || frac > 0.85 {
		t.Fatalf("intra-rack fraction = %.3f, want ≈0.80", frac)
	}
}

func TestPairsValidatesAgainstModel(t *testing.T) {
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	w := MustPairs(ft, 500, DefaultIntraRack, rand.New(rand.NewSource(4)))
	if err := w.Validate(d); err != nil {
		t.Fatalf("generated workload invalid: %v", err)
	}
}

func TestPairsErrors(t *testing.T) {
	ft := topology.MustFatTree(2, nil)
	rng := rand.New(rand.NewSource(5))
	if _, err := pairs(ft, -1, 0.8, rng); err == nil {
		t.Fatal("negative l accepted")
	}
	if _, err := pairs(ft, 5, 1.5, rng); err == nil {
		t.Fatal("intra-rack > 1 accepted")
	}
	empty := &topology.Topology{Name: "empty"}
	if _, err := pairs(empty, 5, 0.5, rng); err == nil {
		t.Fatal("hostless topology accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustPairs should panic")
		}
	}()
	MustPairs(ft, -1, 0.8, rng)
}

func TestPairsDeterministic(t *testing.T) {
	ft := topology.MustFatTree(4, nil)
	a := MustPairs(ft, 100, 0.8, rand.New(rand.NewSource(9)))
	b := MustPairs(ft, 100, 0.8, rand.New(rand.NewSource(9)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pair %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDiurnalEq9Values(t *testing.T) {
	m := PaperDiurnal()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Literal Eq. 9 with N=12, τ_min=0.2.
	cases := map[int]float64{
		0:  0,
		1:  2 * (1.0 / 12) * 0.8,
		3:  2 * (3.0 / 12) * 0.8,
		6:  0.8, // peak at noon
		9:  2 * (3.0 / 12) * 0.8,
		12: 0,
		13: 0, // outside working day
		-1: 0,
	}
	for h, want := range cases {
		if got := m.scale(h); math.Abs(got-want) > 1e-12 {
			t.Errorf("τ_%d = %v, want %v", h, got, want)
		}
	}
}

func TestDiurnalSymmetryProperty(t *testing.T) {
	// Eq. 9 is symmetric around noon: τ_h == τ_{N-h}.
	m := PaperDiurnal()
	f := func(hRaw uint8) bool {
		h := int(hRaw) % (m.N + 1)
		return math.Abs(m.scale(h)-m.scale(m.N-h)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiurnalMonotoneMorning(t *testing.T) {
	m := PaperDiurnal()
	for h := 1; h < m.N/2; h++ {
		if m.scale(h+1) <= m.scale(h) {
			t.Fatalf("τ not increasing at %d: %v -> %v", h, m.scale(h), m.scale(h+1))
		}
	}
	for h := m.N / 2; h < m.N; h++ {
		if m.scale(h+1) >= m.scale(h) {
			t.Fatalf("τ not decreasing at %d", h)
		}
	}
}

func TestDiurnalFlowScaleCoasts(t *testing.T) {
	m := PaperDiurnal()
	// At hour 6, east coast (even flows) is at peak; west coast (odd) is
	// 3 hours behind.
	if got := m.FlowScale(0, 6); got != m.scale(6) {
		t.Fatalf("east flow scale = %v", got)
	}
	if got := m.FlowScale(1, 6); got != m.scale(3) {
		t.Fatalf("west flow scale = %v, want τ_3", got)
	}
	// Before the west-coast day starts its flows are silent.
	if got := m.FlowScale(1, 2); got != m.scale(-1) {
		t.Fatalf("west flow at h=2 = %v, want 0", got)
	}
}

func TestDiurnalApply(t *testing.T) {
	m := PaperDiurnal()
	base := model.Workload{{Src: 0, Dst: 1, Rate: 1000}, {Src: 2, Dst: 3, Rate: 2000}}
	got := m.Apply(base, 6)
	if got[0].Rate != 1000*m.scale(6) {
		t.Fatalf("east rate = %v", got[0].Rate)
	}
	if got[1].Rate != 2000*m.scale(3) {
		t.Fatalf("west rate = %v", got[1].Rate)
	}
	if base[0].Rate != 1000 {
		t.Fatal("Apply mutated base workload")
	}
	if got[0].Src != 0 || got[1].Dst != 3 {
		t.Fatal("Apply lost endpoints")
	}
}

func TestDiurnalHorizonAndSeries(t *testing.T) {
	m := PaperDiurnal()
	if m.Horizon() != 15 {
		t.Fatalf("horizon = %d, want 15", m.Horizon())
	}
	if s := []float64{m.scale(0), m.scale(6), m.scale(12)}; s[0] != 0 || s[1] != 0.8 || s[2] != 0 {
		t.Fatalf("τ_0, τ_6, τ_12 = %v, want 0, 0.8, 0", s)
	}
}

func TestDiurnalValidateErrors(t *testing.T) {
	for _, m := range []Diurnal{
		{N: 0, TauMin: 0.2},
		{N: 11, TauMin: 0.2},
		{N: 12, TauMin: -0.1},
		{N: 12, TauMin: 1.1},
		{N: 12, TauMin: 0.2, ShiftHours: -1},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("model %+v accepted", m)
		}
	}
}
