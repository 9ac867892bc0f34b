package differential

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// fuzzTopology materializes one of several topology families from fuzzed
// bytes, so the cache equivalence is exercised on fat trees, leaf-spine
// Clos fabrics, rings, and random meshes alike.
func fuzzTopology(kind uint8, rng *rand.Rand) *topology.Topology {
	switch kind % 4 {
	case 0:
		return topology.MustFatTree(4, nil)
	case 1:
		t, err := topology.LeafSpine(4, 2, 4, topology.PaperDelay(rng))
		if err != nil {
			panic(err)
		}
		return t
	case 2:
		t, err := topology.Ring(8, nil)
		if err != nil {
			panic(err)
		}
		return t
	default:
		t, err := topology.RandomMesh(10, 20, 8, topology.PaperDelay(rng), rng)
		if err != nil {
			panic(err)
		}
		return t
	}
}

func randomCachePlacement(d *model.PPDC, n int, rng *rand.Rand) model.Placement {
	sw := d.Switches()
	perm := rng.Perm(len(sw))
	p := make(model.Placement, n)
	for j := range p {
		p[j] = sw[perm[j%len(sw)]]
	}
	return p
}

// FuzzCostCacheEquivalence asserts aggregated-cache C_a ≡ scalar C_a (to
// reassociation tolerance) across random topologies, workloads, random
// placements, and repeated rate mutations through the SetWorkload
// invalidation hook. Any divergence is a real kernel bug: the cache and
// the oracle sum exactly the same λ·c terms. A cache re-set with new
// rates — re-summing its grouping or regrouping — must also hold a fresh
// cache's bits.
// Run with `go test -fuzz=FuzzCostCacheEquivalence ./internal/differential`.
func FuzzCostCacheEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(12), uint8(3), uint8(4))
	f.Add(int64(7), uint8(1), uint8(40), uint8(1), uint8(2))
	f.Add(int64(-3), uint8(2), uint8(5), uint8(5), uint8(0))
	f.Add(int64(99), uint8(3), uint8(25), uint8(2), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, topoKind, lRaw, nRaw, mutations uint8) {
		rng := rand.New(rand.NewSource(seed))
		topo := fuzzTopology(topoKind, rng)
		d := model.MustNew(topo, model.Options{AllowColocation: topoKind%2 == 1})
		l := 1 + int(lRaw)%60
		n := 1 + int(nRaw)%5
		if n > len(d.Switches()) {
			n = len(d.Switches())
		}
		w := workload.MustPairs(topo, l, 0.5, rng)

		cache := d.NewWorkloadCache(w)
		rounds := 1 + int(mutations)%8
		for round := 0; round < rounds; round++ {
			// Defined at switch cells; host cells are 0.
			in, eg := cache.EndpointCosts()
			inS, egS := d.EndpointCosts(w)
			for _, v := range d.Switches() {
				if !closeRel(in[v], inS[v]) || !closeRel(eg[v], egS[v]) {
					t.Fatalf("round %d: endpoint vectors diverge at vertex %d: (%v,%v) vs (%v,%v)",
						round, v, in[v], eg[v], inS[v], egS[v])
				}
			}
			for _, h := range d.Hosts() {
				if in[h] != 0 || eg[h] != 0 {
					t.Fatalf("round %d: host cell %d is (%v,%v), want 0", round, h, in[h], eg[h])
				}
			}
			if got, want := cache.CommCost(nil), d.CommCost(w, nil); !closeRel(got, want) {
				t.Fatalf("round %d: direct C_a %v vs scalar %v", round, got, want)
			}
			for trial := 0; trial < 10; trial++ {
				p := randomCachePlacement(d, n, rng)
				if got, want := cache.CommCost(p), d.CommCost(w, p); !closeRel(got, want) {
					t.Fatalf("round %d: C_a(%v) = %v, scalar %v", round, p, got, want)
				}
				m := randomCachePlacement(d, n, rng)
				mu := float64(rng.Intn(100_000))
				if got, want := d.MigrationCost(p, m, mu)+cache.CommCost(m), d.TotalCost(w, p, m, mu); !closeRel(got, want) {
					t.Fatalf("round %d: C_t %v, scalar %v", round, got, want)
				}
			}
			// The Problem this re-used cache describes solves as a fresh
			// one does: same placement, bit-equal cost.
			sfc := model.NewSFC(n)
			p1, c1, err1 := placement.Solve(context.Background(), placement.DP{}, cache.Problem(sfc))
			p2, c2, err2 := placement.DP{}.Place(d, w, sfc)
			if (err1 == nil) != (err2 == nil) || !p1.Equal(p2) || c1 != c2 {
				t.Fatalf("round %d: DP on the cache's Problem %v/%v/%v, on fresh inputs %v/%v/%v", round, p1, c1, err1, p2, c2, err2)
			}
			// Re-set the cache with rate-mutated copies: one keeping w's
			// zero-rate flows, which SetWorkload re-sums over the grouping
			// it has, then one with some rates zeroed, which regroups. Both
			// must leave a fresh cache's bits.
			kept := w.WithRates(workload.Rates(len(w), rng))
			zeroed := kept.WithRates(workload.Rates(len(w), rng))
			for i := range kept {
				if w[i].Rate == 0 {
					kept[i].Rate = 0
				}
				if rng.Intn(4) == 0 {
					zeroed[i].Rate = 0
				}
			}
			for _, w2 := range []model.Workload{kept, zeroed} {
				cache.SetWorkload(w2)
				requireFreshCache(t, round, d, cache, w2, n, rng)
			}
			// Mutate rates (occasionally zeroing some flows out entirely)
			// and push them through the invalidation hook.
			w = w.WithRates(workload.Rates(len(w), rng))
			if rng.Intn(3) == 0 {
				w[rng.Intn(len(w))].Rate = 0
			}
			cache.SetWorkload(w)
		}
	})
}

// requireFreshCache fails unless cache holds, bit for bit, what a fresh
// cache over w holds: Λ, the switch cells of the endpoint and unit-rate
// vectors, and C_a of random placements. (The aggregated pairs are
// unexported; the model package's requireFreshBits compares them.)
func requireFreshCache(t *testing.T, round int, d *model.PPDC, cache *model.WorkloadCache, w model.Workload, n int, rng *rand.Rand) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	fresh := d.NewWorkloadCache(w)
	in, eg := cache.EndpointCosts()
	inF, egF := fresh.EndpointCosts()
	uIn, uEg := cache.UnitEndpointCosts()
	uInF, uEgF := fresh.UnitEndpointCosts()
	for _, v := range d.Switches() {
		if !same(in[v], inF[v]) || !same(eg[v], egF[v]) || !same(uIn[v], uInF[v]) || !same(uEg[v], uEgF[v]) {
			t.Fatalf("round %d: re-set cache differs from a fresh one at switch %d", round, v)
		}
	}
	if !same(cache.TotalRate(), fresh.TotalRate()) || !same(cache.CommCost(nil), fresh.CommCost(nil)) {
		t.Fatalf("round %d: re-set cache Λ/direct C_a %v/%v, fresh %v/%v", round,
			cache.TotalRate(), cache.CommCost(nil), fresh.TotalRate(), fresh.CommCost(nil))
	}
	for trial := 0; trial < 5; trial++ {
		p := randomCachePlacement(d, n, rng)
		if !same(cache.CommCost(p), fresh.CommCost(p)) {
			t.Fatalf("round %d: re-set cache C_a(%v) %v, fresh %v", round, p, cache.CommCost(p), fresh.CommCost(p))
		}
	}
}

// TestCostCacheEquivalenceCorpus runs the fuzz body over a deterministic
// seed sweep so the property is enforced by plain `go test` as well.
func TestCostCacheEquivalenceCorpus(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		topo := fuzzTopology(uint8(seed), rng)
		d := model.MustNew(topo, model.Options{})
		w := workload.MustPairs(topo, 3+int(seed)*2, 0.5, rng)
		cache := d.NewWorkloadCache(w)
		for round := 0; round < 4; round++ {
			for trial := 0; trial < 8; trial++ {
				p := randomCachePlacement(d, 1+rng.Intn(4), rng)
				if got, want := cache.CommCost(p), d.CommCost(w, p); !closeRel(got, want) {
					t.Fatalf("seed %d round %d: C_a(%v) = %v, scalar %v", seed, round, p, got, want)
				}
			}
			w = w.WithRates(workload.Rates(len(w), rng))
			cache.SetWorkload(w)
		}
	}
}
