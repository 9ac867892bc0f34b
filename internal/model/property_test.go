package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vnfopt/internal/topology"
)

// propertyFixture builds a shared k=4 PPDC plus generators for random
// workloads and placements derived from a seed.
type propertyFixture struct {
	d *PPDC
}

func newPropertyFixture() *propertyFixture {
	return &propertyFixture{d: MustNew(topology.MustFatTree(4, nil), Options{})}
}

func (fx *propertyFixture) workload(rng *rand.Rand, l int) Workload {
	hosts := fx.d.Topo.Hosts
	w := make(Workload, l)
	for i := range w {
		w[i] = VMPair{
			Src:  hosts[rng.Intn(len(hosts))],
			Dst:  hosts[rng.Intn(len(hosts))],
			Rate: rng.Float64() * 1000,
		}
	}
	return w
}

func (fx *propertyFixture) placement(rng *rand.Rand, n int) Placement {
	perm := rng.Perm(len(fx.d.Topo.Switches))
	p := make(Placement, n)
	for j := 0; j < n; j++ {
		p[j] = fx.d.Topo.Switches[perm[j]]
	}
	return p
}

// TestPropertyCommCostLinearInRates: C_a(c·λ) = c·C_a(λ).
func TestPropertyCommCostLinearInRates(t *testing.T) {
	fx := newPropertyFixture()
	f := func(seed int64, scaleRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := fx.workload(rng, 1+rng.Intn(10))
		p := fx.placement(rng, 1+rng.Intn(4))
		scale := 1 + float64(scaleRaw)/16
		scaled := make([]float64, len(w))
		for i := range w {
			scaled[i] = w[i].Rate * scale
		}
		a := fx.d.CommCost(w, p) * scale
		b := fx.d.CommCost(w.WithRates(scaled), p)
		return math.Abs(a-b) < 1e-6*(1+math.Abs(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCommCostAdditive: C_a over a concatenated workload is the
// sum of the parts.
func TestPropertyCommCostAdditive(t *testing.T) {
	fx := newPropertyFixture()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w1 := fx.workload(rng, 1+rng.Intn(8))
		w2 := fx.workload(rng, 1+rng.Intn(8))
		p := fx.placement(rng, 1+rng.Intn(4))
		joint := append(append(Workload{}, w1...), w2...)
		a := fx.d.CommCost(w1, p) + fx.d.CommCost(w2, p)
		b := fx.d.CommCost(joint, p)
		return math.Abs(a-b) < 1e-6*(1+math.Abs(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMigrationCostSymmetric: C_b(p→m) = C_b(m→p) on an
// undirected PPDC, and zero exactly when p = m.
func TestPropertyMigrationCostSymmetric(t *testing.T) {
	fx := newPropertyFixture()
	f := func(seed int64, muRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		p := fx.placement(rng, n)
		m := fx.placement(rng, n)
		mu := float64(muRaw)
		fwd := fx.d.MigrationCost(p, m, mu)
		bwd := fx.d.MigrationCost(m, p, mu)
		if math.Abs(fwd-bwd) > 1e-9 {
			return false
		}
		if p.Equal(m) && fwd != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTotalCostIdentity: C_t(p, p) = C_a(p) — staying put costs
// exactly the communication cost.
func TestPropertyTotalCostIdentity(t *testing.T) {
	fx := newPropertyFixture()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := fx.workload(rng, 1+rng.Intn(10))
		p := fx.placement(rng, 1+rng.Intn(4))
		return math.Abs(fx.d.TotalCost(w, p, p, 1e5)-fx.d.CommCost(w, p)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyChainCostTriangle: collapsing any interior VNF of a chain
// onto its predecessor never increases the chain cost by more than the
// removed detour (metric property of shortest-path costs).
func TestPropertyChainCostTriangle(t *testing.T) {
	fx := newPropertyFixture()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := fx.placement(rng, 3)
		// c(p0,p2) ≤ c(p0,p1) + c(p1,p2): the shortest-path oracle obeys
		// the triangle inequality.
		direct := fx.d.Cost(p[0], p[2])
		detour := fx.d.Cost(p[0], p[1]) + fx.d.Cost(p[1], p[2])
		return direct <= detour+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFlowCostNonNegative: every cost primitive is non-negative
// for non-negative rates.
func TestPropertyFlowCostNonNegative(t *testing.T) {
	fx := newPropertyFixture()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := fx.workload(rng, 1+rng.Intn(6))
		p := fx.placement(rng, 1+rng.Intn(4))
		m := fx.placement(rng, len(p))
		if fx.d.CommCost(w, p) < 0 || fx.d.MigrationCost(p, m, 10) < 0 {
			return false
		}
		for _, fl := range w {
			if fx.d.CommCost(Workload{fl}, p) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
