package model

import (
	"math"
	"math/rand"
	"testing"

	"vnfopt/internal/topology"
)

func ppdcK2(t *testing.T) *PPDC {
	t.Helper()
	return MustNew(topology.MustFatTree(2, nil), Options{})
}

// fig3 returns the paper's Fig. 3 setup on the k=2 fat tree. Mapping the
// linear PPDC h1-s1-s2-s3-s4-s5-h2 of Fig. 1 onto fat-tree vertices:
// s1=e1.1, s2=a1.1, s3=c1, s4=a2.1, s5=e2.1.
func fig3(t *testing.T) (d *PPDC, h1, h2, s1, s2, s4, s5 int) {
	t.Helper()
	d = ppdcK2(t)
	byLabel := map[string]int{}
	for v, l := range d.Topo.Labels {
		byLabel[l] = v
	}
	return d, byLabel["h1"], byLabel["h2"], byLabel["e1.1"], byLabel["a1.1"], byLabel["a2.1"], byLabel["e2.1"]
}

func TestExample1Fig3InitialCost(t *testing.T) {
	d, h1, h2, s1, s2, _, _ := fig3(t)
	w := Workload{{Src: h1, Dst: h1, Rate: 100}, {Src: h2, Dst: h2, Rate: 1}}
	p := Placement{s1, s2}
	if got := d.CommCost(w, p); got != 410 {
		t.Fatalf("C_a(p) = %v, want 410 (paper Fig. 3(a))", got)
	}
}

func TestExample1Fig3AfterRateSwap(t *testing.T) {
	d, h1, h2, s1, s2, _, _ := fig3(t)
	w := Workload{{Src: h1, Dst: h1, Rate: 1}, {Src: h2, Dst: h2, Rate: 100}}
	p := Placement{s1, s2}
	if got := d.CommCost(w, p); got != 1004 {
		t.Fatalf("C_a(p) after swap = %v, want 1004 (paper Fig. 3(b))", got)
	}
}

func TestExample1Fig3MigrationReduction(t *testing.T) {
	d, h1, h2, s1, s2, s4, s5 := fig3(t)
	w := Workload{{Src: h1, Dst: h1, Rate: 1}, {Src: h2, Dst: h2, Rate: 100}}
	p := Placement{s1, s2}
	m := Placement{s5, s4}
	const mu = 1.0
	if got := d.MigrationCost(p, m, mu); got != 6 {
		t.Fatalf("C_b = %v, want 6 (paper Fig. 3(c))", got)
	}
	if got := d.CommCost(w, m); got != 410 {
		t.Fatalf("C_a(m) = %v, want 410 (paper Fig. 3(d))", got)
	}
	before := d.CommCost(w, p)
	after := d.TotalCost(w, p, m, mu)
	reduction := (before - after) / before
	if math.Abs(reduction-0.586) > 0.001 {
		t.Fatalf("total cost reduction = %.4f, want ≈0.586 (paper: 58.6%%)", reduction)
	}
}

func TestCommCostEmptyPlacement(t *testing.T) {
	d, h1, h2, _, _, _, _ := fig3(t)
	w := Workload{{Src: h1, Dst: h2, Rate: 3}}
	// Without an SFC the flow pays the direct shortest path (6 hops).
	if got := d.CommCost(w, nil); got != 18 {
		t.Fatalf("direct cost = %v, want 18", got)
	}
}

func TestFlowCostSumsToCommCost(t *testing.T) {
	ft := topology.MustFatTree(4, nil)
	d := MustNew(ft, Options{})
	rng := rand.New(rand.NewSource(2))
	w := Workload{}
	for i := 0; i < 10; i++ {
		w = append(w, VMPair{
			Src:  ft.Hosts[rng.Intn(len(ft.Hosts))],
			Dst:  ft.Hosts[rng.Intn(len(ft.Hosts))],
			Rate: rng.Float64() * 100,
		})
	}
	p := Placement{ft.Switches[0], ft.Switches[5], ft.Switches[11]}
	sum := 0.0
	for _, f := range w {
		sum += d.CommCost(Workload{f}, p)
	}
	if got := d.CommCost(w, p); math.Abs(got-sum) > 1e-6 {
		t.Fatalf("CommCost %v != Σ per-flow cost %v", got, sum)
	}
}

func TestEndpointCostsDecomposition(t *testing.T) {
	ft := topology.MustFatTree(4, nil)
	d := MustNew(ft, Options{})
	rng := rand.New(rand.NewSource(4))
	w := Workload{}
	for i := 0; i < 8; i++ {
		w = append(w, VMPair{
			Src:  ft.Hosts[rng.Intn(len(ft.Hosts))],
			Dst:  ft.Hosts[rng.Intn(len(ft.Hosts))],
			Rate: float64(rng.Intn(1000)),
		})
	}
	in, eg := d.EndpointCosts(w)
	lambda := w.TotalRate()
	for trial := 0; trial < 20; trial++ {
		p := Placement{
			ft.Switches[rng.Intn(len(ft.Switches))],
			ft.Switches[rng.Intn(len(ft.Switches))],
			ft.Switches[rng.Intn(len(ft.Switches))],
		}
		want := d.CommCost(w, p)
		got := lambda*d.ChainCost(p) + in[p[0]] + eg[p[len(p)-1]]
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("decomposition %v != Eq.1 %v for %v", got, want, p)
		}
	}
}

func TestEndpointCostsSkipsZeroRate(t *testing.T) {
	d, h1, h2, _, _, _, _ := fig3(t)
	in0, eg0 := d.EndpointCosts(Workload{{Src: h1, Dst: h2, Rate: 0}})
	for v := range in0 {
		if in0[v] != 0 || eg0[v] != 0 {
			t.Fatal("zero-rate flow contributed to endpoint costs")
		}
	}
}

func TestMigrationCostIdentityIsZero(t *testing.T) {
	d, _, _, s1, s2, _, _ := fig3(t)
	p := Placement{s1, s2}
	if got := d.MigrationCost(p, p, 1e5); got != 0 {
		t.Fatalf("self-migration cost = %v, want 0", got)
	}
}

func TestMigrationCostPanicsOnLengthMismatch(t *testing.T) {
	d, _, _, s1, s2, _, _ := fig3(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.MigrationCost(Placement{s1, s2}, Placement{s1}, 1)
}

func TestWorkloadHelpers(t *testing.T) {
	w := Workload{{Rate: 2}, {Rate: 3.5}}
	if w.TotalRate() != 5.5 {
		t.Fatalf("TotalRate = %v", w.TotalRate())
	}
	r := w.Rates()
	if r[0] != 2 || r[1] != 3.5 {
		t.Fatalf("Rates = %v", r)
	}
	w2 := w.WithRates([]float64{7, 8})
	if w2[0].Rate != 7 || w2[1].Rate != 8 || w[0].Rate != 2 {
		t.Fatalf("WithRates mutated original or wrong copy: %v %v", w, w2)
	}
}

func TestWithRatesPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Workload{{Rate: 1}}.WithRates([]float64{1, 2})
}

func TestWorkloadValidate(t *testing.T) {
	d, h1, h2, s1, _, _, _ := fig3(t)
	good := Workload{{Src: h1, Dst: h2, Rate: 5}}
	if err := good.Validate(d); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	bad := Workload{{Src: s1, Dst: h2, Rate: 5}} // switch as endpoint
	if err := bad.Validate(d); err == nil {
		t.Fatal("switch endpoint accepted")
	}
	neg := Workload{{Src: h1, Dst: h2, Rate: -1}}
	if err := neg.Validate(d); err == nil {
		t.Fatal("negative rate accepted")
	}
	nan := Workload{{Src: h1, Dst: h2, Rate: math.NaN()}}
	if err := nan.Validate(d); err == nil {
		t.Fatal("NaN rate accepted")
	}
}

func TestPlacementValidate(t *testing.T) {
	d, h1, _, s1, s2, _, _ := fig3(t)
	sfc := NewSFC(2)
	if err := (Placement{s1, s2}).Validate(d, sfc); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	if err := (Placement{s1}).Validate(d, sfc); err == nil {
		t.Fatal("short placement accepted")
	}
	if err := (Placement{s1, h1}).Validate(d, sfc); err == nil {
		t.Fatal("host placement accepted")
	}
	if err := (Placement{s1, s1}).Validate(d, sfc); err == nil {
		t.Fatal("duplicate switches accepted without colocation")
	}
}

func TestPlacementValidateColocation(t *testing.T) {
	d2 := MustNew(topology.MustFatTree(2, nil), Options{AllowColocation: true})
	s := d2.Topo.Switches[0]
	if err := (Placement{s, s}).Validate(d2, NewSFC(2)); err != nil {
		t.Fatalf("colocation rejected despite option: %v", err)
	}
}

func TestPlacementCloneEqual(t *testing.T) {
	p := Placement{1, 2, 3}
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	q[0] = 9
	if p.Equal(q) || p[0] == 9 {
		t.Fatal("clone shares storage")
	}
	if p.Equal(Placement{1, 2}) {
		t.Fatal("length mismatch equal")
	}
}

func TestNewSFC(t *testing.T) {
	c := NewSFC(3)
	if c.Len() != 3 || c.Names[0] != "f1" || c.Names[2] != "f3" {
		t.Fatalf("SFC = %+v", c)
	}
}

func TestNewRejectsNilAndInvalid(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	broken := topology.MustFatTree(2, nil)
	broken.Hosts = broken.Hosts[:1] // corrupt partition
	if _, err := New(broken, Options{}); err == nil {
		t.Fatal("invalid topology accepted")
	}
}

func TestChainCostSingleVNF(t *testing.T) {
	d, _, _, s1, _, _, _ := fig3(t)
	if got := d.ChainCost(Placement{s1}); got != 0 {
		t.Fatalf("chain of one VNF = %v, want 0", got)
	}
}
