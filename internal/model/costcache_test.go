package model

import (
	"math"
	"math/rand"
	"testing"

	"vnfopt/internal/topology"
)

// closeRel is the 1-ULP-scale equivalence the aggregated cache promises:
// it reorders float sums, so results match the scalar oracle up to
// reassociation error, which is bounded far below 1e-9 relative at our
// workload sizes.
func closeRel(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

func cacheFixture(t *testing.T) (*PPDC, Workload, *rand.Rand) {
	t.Helper()
	d := MustNew(topology.MustFatTree(4, nil), Options{})
	rng := rand.New(rand.NewSource(42))
	hosts := d.Hosts()
	w := make(Workload, 40)
	for i := range w {
		w[i] = VMPair{
			Src:  hosts[rng.Intn(len(hosts))],
			Dst:  hosts[rng.Intn(len(hosts))],
			Rate: rng.Float64() * 100,
		}
	}
	return d, w, rng
}

func randomPlacement(d *PPDC, n int, rng *rand.Rand) Placement {
	sw := d.Switches()
	perm := rng.Perm(len(sw))
	p := make(Placement, n)
	for j := 0; j < n; j++ {
		p[j] = sw[perm[j]]
	}
	return p
}

func TestWorkloadCacheMatchesScalarOracles(t *testing.T) {
	d, w, rng := cacheFixture(t)
	c := d.NewWorkloadCache(w)

	if got, want := c.TotalRate(), w.TotalRate(); !closeRel(got, want) {
		t.Fatalf("TotalRate %v != %v", got, want)
	}
	// The vectors are defined at switch cells; host cells are 0.
	in, eg := c.EndpointCosts()
	inS, egS := d.EndpointCosts(w)
	for _, v := range d.Switches() {
		if !closeRel(in[v], inS[v]) || !closeRel(eg[v], egS[v]) {
			t.Fatalf("endpoint vectors diverge at %d: (%v,%v) vs (%v,%v)", v, in[v], eg[v], inS[v], egS[v])
		}
	}
	for _, h := range d.Hosts() {
		if in[h] != 0 || eg[h] != 0 {
			t.Fatalf("host cell %d is (%v,%v), want 0", h, in[h], eg[h])
		}
	}
	if got, want := c.CommCost(nil), d.CommCost(w, nil); !closeRel(got, want) {
		t.Fatalf("empty-placement C_a %v != %v", got, want)
	}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5)
		p := randomPlacement(d, n, rng)
		if got, want := c.CommCost(p), d.CommCost(w, p); !closeRel(got, want) {
			t.Fatalf("C_a(%v) = %v, scalar %v", p, got, want)
		}
		m := randomPlacement(d, n, rng)
		mu := rng.Float64() * 1e4
		if got, want := d.MigrationCost(p, m, mu)+c.CommCost(m), d.TotalCost(w, p, m, mu); !closeRel(got, want) {
			t.Fatalf("C_t = %v, scalar %v", got, want)
		}
	}
}

func TestWorkloadCacheAggregatesDuplicatePairs(t *testing.T) {
	d, _, _ := cacheFixture(t)
	h := d.Hosts()
	w := Workload{
		{Src: h[0], Dst: h[1], Rate: 3},
		{Src: h[0], Dst: h[1], Rate: 4}, // same pair: must merge
		{Src: h[1], Dst: h[0], Rate: 5}, // reversed pair: must stay separate
		{Src: h[2], Dst: h[3], Rate: 0}, // zero rate: must be dropped
	}
	c := d.NewWorkloadCache(w)
	agg := c.pairs
	if len(agg) != 2 {
		t.Fatalf("aggregated to %d pairs, want 2: %v", len(agg), agg)
	}
	if agg[0].Rate != 7 || agg[1].Rate != 5 {
		t.Fatalf("aggregated rates %v/%v, want 7/5", agg[0].Rate, agg[1].Rate)
	}
	if got, want := c.CommCost(nil), d.CommCost(w, nil); !closeRel(got, want) {
		t.Fatalf("direct cost %v != scalar %v", got, want)
	}
}

// TestWorkloadCacheSetWorkload exercises the invalidation hook of the TOM
// dynamic-rates path: rebuilt aggregates must track the new rates (and
// even new endpoints) exactly as a fresh cache would.
func TestWorkloadCacheSetWorkload(t *testing.T) {
	d, w, rng := cacheFixture(t)
	c := d.NewWorkloadCache(w)
	p := randomPlacement(d, 3, rng)

	for round := 0; round < 10; round++ {
		w2 := make(Workload, len(w))
		copy(w2, w)
		for i := range w2 {
			w2[i].Rate = rng.Float64() * 1000
		}
		if round%3 == 2 { // occasionally move endpoints too
			hosts := d.Hosts()
			w2[rng.Intn(len(w2))].Src = hosts[rng.Intn(len(hosts))]
		}
		c.SetWorkload(w2)
		if got, want := c.CommCost(p), d.CommCost(w2, p); !closeRel(got, want) {
			t.Fatalf("round %d: rebuilt C_a %v != scalar %v", round, got, want)
		}
		fresh := d.NewWorkloadCache(w2)
		if got, want := c.CommCost(p), fresh.CommCost(p); got != want {
			t.Fatalf("round %d: rebuilt cache %v != fresh cache %v (determinism)", round, got, want)
		}
	}
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireFreshBits fails unless c holds, bit for bit, what a fresh cache
// over w holds: the aggregated pairs in order, Λ, the switch cells of the
// endpoint and unit-rate vectors, and C_a of the empty and random
// placements.
func requireFreshBits(t *testing.T, when string, d *PPDC, c *WorkloadCache, w Workload, rng *rand.Rand) {
	t.Helper()
	fresh := d.NewWorkloadCache(w)
	got, want := c.pairs, fresh.pairs
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, fresh cache %d", when, len(got), len(want))
	}
	for i := range want {
		if got[i].Src != want[i].Src || got[i].Dst != want[i].Dst || !sameBits(got[i].Rate, want[i].Rate) {
			t.Fatalf("%s: pair %d is %+v, fresh cache %+v", when, i, got[i], want[i])
		}
	}
	if !sameBits(c.TotalRate(), fresh.TotalRate()) {
		t.Fatalf("%s: Λ %v, fresh cache %v", when, c.TotalRate(), fresh.TotalRate())
	}
	in, eg := c.EndpointCosts()
	inF, egF := fresh.EndpointCosts()
	unitIn, unitEg := c.UnitEndpointCosts()
	unitInF, unitEgF := fresh.UnitEndpointCosts()
	for _, v := range d.Switches() {
		if !sameBits(in[v], inF[v]) || !sameBits(eg[v], egF[v]) {
			t.Fatalf("%s: switch %d cell (%v,%v), fresh cache (%v,%v)", when, v, in[v], eg[v], inF[v], egF[v])
		}
		if !sameBits(unitIn[v], unitInF[v]) || !sameBits(unitEg[v], unitEgF[v]) {
			t.Fatalf("%s: switch %d unit cell (%v,%v), fresh cache (%v,%v)", when, v, unitIn[v], unitEg[v], unitInF[v], unitEgF[v])
		}
	}
	if !sameBits(c.CommCost(nil), fresh.CommCost(nil)) {
		t.Fatalf("%s: direct C_a %v, fresh cache %v", when, c.CommCost(nil), fresh.CommCost(nil))
	}
	for trial := 0; trial < 20; trial++ {
		p := randomPlacement(d, 1+rng.Intn(5), rng)
		if !sameBits(c.CommCost(p), fresh.CommCost(p)) {
			t.Fatalf("%s: C_a(%v) %v, fresh cache %v", when, p, c.CommCost(p), fresh.CommCost(p))
		}
	}
}

// TestSetWorkloadReuseMatchesFresh: a SetWorkload that re-sums the
// grouping it already has — rates changed, endpoints and zero-rate
// pattern did not — and one that regroups both leave the cache with a
// fresh cache's bits, through rate churn, a flow going to 0 and back, a
// zero that reorders the pairs, and an endpoint move.
func TestSetWorkloadReuseMatchesFresh(t *testing.T) {
	d, w, rng := cacheFixture(t)
	h := d.Hosts()
	// Pair A owns flows 0 and 10, pair B flow 5: A comes first while flow
	// 0 is non-zero, B first while it is zero.
	w[0] = VMPair{Src: h[0], Dst: h[1], Rate: 2}
	w[10] = VMPair{Src: h[0], Dst: h[1], Rate: 3}
	w[5] = VMPair{Src: h[2], Dst: h[3], Rate: 5}
	w[20], w[30] = w[7], w[7] // one pair shared by three flows
	a, b := [2]int{h[0], h[1]}, [2]int{h[2], h[3]}
	for i, f := range w {
		if k := [2]int{f.Src, f.Dst}; i != 0 && i != 10 && k == a || i != 5 && k == b {
			t.Fatalf("flow %d shares pair A or B", i)
		}
	}
	c := d.NewWorkloadCache(w)
	requireFreshBits(t, "new", d, c, w, rng)
	aFirst := func() bool {
		for _, f := range c.pairs {
			if k := [2]int{f.Src, f.Dst}; k == a || k == b {
				return k == a
			}
		}
		panic("neither pair A nor B aggregated")
	}

	churn := func(w Workload) Workload {
		w2 := append(Workload(nil), w...)
		for i := range w2 {
			if w2[i].Rate != 0 {
				w2[i].Rate = rng.Float64() * 1000
			}
		}
		return w2
	}
	steps := []struct {
		name   string
		mutate func(Workload) Workload
	}{
		{"rate churn", churn},
		{"rate churn again", churn},
		{"flow 7 to 0", func(w Workload) Workload { w = churn(w); w[7].Rate = 0; return w }},
		{"churn with flow 7 at 0", churn},
		{"flow 7 back", func(w Workload) Workload { w = churn(w); w[7].Rate = 4; return w }},
		{"flow 0 to 0: B before A", func(w Workload) Workload { w = churn(w); w[0].Rate = 0; return w }},
		{"churn with B before A", churn},
		{"flow 0 back: A before B", func(w Workload) Workload { w = churn(w); w[0].Rate = 1e-3; return w }},
		{"endpoint move", func(w Workload) Workload { w = churn(w); w[12].Dst = h[len(h)-1]; return w }},
		{"churn after the move", churn},
	}
	for _, s := range steps {
		w = s.mutate(w)
		c.SetWorkload(w)
		requireFreshBits(t, s.name, d, c, w, rng)
		if aFirst() != (w[0].Rate != 0) {
			t.Fatalf("%s: pair A before B is %v with flow 0 at rate %v", s.name, aFirst(), w[0].Rate)
		}
	}
}

// TestWorkloadCacheRebuildAllocatesNothing: once the cache has seen a
// workload, rebuilding over the same endpoints reuses every aggregate.
func TestWorkloadCacheRebuildAllocatesNothing(t *testing.T) {
	d, w, _ := cacheFixture(t)
	c := d.NewWorkloadCache(w)
	if allocs := testing.AllocsPerRun(10, func() {
		w[0].Rate++
		c.SetWorkload(w)
	}); allocs != 0 {
		t.Fatalf("steady-state SetWorkload allocates %v times, want 0", allocs)
	}
}

// TestWorkloadCacheDeterministic: two caches over the same workload are
// bit-identical — aggregation runs in slice order, never map order.
func TestWorkloadCacheDeterministic(t *testing.T) {
	d, w, _ := cacheFixture(t)
	a, b := d.NewWorkloadCache(w), d.NewWorkloadCache(w)
	inA, egA := a.EndpointCosts()
	inB, egB := b.EndpointCosts()
	for v := range inA {
		if inA[v] != inB[v] || egA[v] != egB[v] {
			t.Fatalf("nondeterministic aggregation at vertex %d", v)
		}
	}
}

// TestUnitEndpointCosts: the unit-rate vectors are, bit for bit, the
// EndpointCosts of a cache built on the rate-1 workload (zero-rate flows
// counted); a rates-only SetWorkload keeps the very arrays, an endpoint
// move — or a different flow count — drops them.
func TestUnitEndpointCosts(t *testing.T) {
	d, w, rng := cacheFixture(t)
	w[3].Rate = 0
	w = append(w, w[5], w[5]) // flows sharing a host pair
	c := d.NewWorkloadCache(w)

	check := func(when string, w Workload) (in []float64) {
		t.Helper()
		unit := make(Workload, len(w))
		for i, f := range w {
			f.Rate = 1
			unit[i] = f
		}
		wantIn, wantEg := d.NewWorkloadCache(unit).EndpointCosts()
		in, eg := c.UnitEndpointCosts()
		for v := range wantIn {
			if in[v] != wantIn[v] || eg[v] != wantEg[v] {
				t.Fatalf("%s: unit vectors differ from a fresh unit-rate cache at vertex %d: (%v,%v) vs (%v,%v)",
					when, v, in[v], eg[v], wantIn[v], wantEg[v])
			}
		}
		return in
	}
	first := check("fresh", w)
	if again, _ := c.UnitEndpointCosts(); &again[0] != &first[0] {
		t.Fatal("second ask recomputed the unit vectors")
	}

	w2 := append(Workload(nil), w...)
	for i := range w2 {
		w2[i].Rate = rng.Float64() * 1000
	}
	w2[7].Rate = 0
	c.SetWorkload(w2)
	if kept := check("rates only", w2); &kept[0] != &first[0] {
		t.Fatal("a rates-only SetWorkload recomputed the unit vectors")
	}

	last := &w2[len(w2)-1]
	for _, h := range d.Hosts() {
		if h != last.Dst {
			last.Dst = h
			break
		}
	}
	c.SetWorkload(w2)
	if moved := check("endpoint moved", w2); &moved[0] == &first[0] {
		t.Fatal("an endpoint move kept the stale unit vectors")
	}

	c.SetWorkload(w2[:len(w2)-1])
	check("one flow fewer", w2[:len(w2)-1])
}

// TestProblemIsTheCachesOwn: a Problem carries the cache's fabric and
// the flow list the cache was set from — a copy, so the caller's slice
// can move on without the Problem's workload and cache parting ways.
func TestProblemIsTheCachesOwn(t *testing.T) {
	d, w, _ := cacheFixture(t)
	sfc := NewSFC(3)
	pr, err := d.NewProblem(w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	if pr.PPDC != d || pr.Cache == nil || pr.SFC.Len() != 3 || len(pr.Workload) != len(w) {
		t.Fatalf("problem %+v does not describe its inputs", pr)
	}
	w[0].Rate += 1000
	if pr.Workload[0].Rate == w[0].Rate {
		t.Fatal("Problem.Workload aliases the caller's slice")
	}
	if got, want := pr.PPDC.CommCost(pr.Workload, nil), pr.Cache.CommCost(nil); !closeRel(got, want) {
		t.Fatalf("workload and cache of one Problem disagree: %v vs %v", got, want)
	}
	if _, err := d.NewProblem(Workload{{Src: -1, Dst: w[0].Dst, Rate: 1}}, sfc); err == nil {
		t.Fatal("NewProblem built a cache over an invalid workload")
	}
	if _, err := (*PPDC)(nil).NewProblem(w, sfc); err == nil {
		t.Fatal("NewProblem on a nil PPDC")
	}
}
