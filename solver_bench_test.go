// Benchmarks for the shared branch-and-bound solver kernel behind
// placement.Optimal (Algorithm 4), migration.Exhaustive (Algorithm 6),
// and the exhaustive n-stroll solver. Each solver is measured on a hard
// 24-switch mesh (wide-spread delays prune poorly, so the search
// actually explores a large tree) plus the k=8 fat-tree TOP instance
// the paper evaluates. Recorded numbers live in
// results/BENCH_solver.json; `make bench-smoke` runs this file at
// -benchtime 1x as a smoke gate.
package vnfopt_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"vnfopt/internal/benchmeta"
	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/topology"
)

// solverMesh is the hard instance: a 24-switch random mesh with delays
// drawn from [0.1, 9.9] and 12 random flows. The wide delay spread
// keeps the kernel's bound loose, which is the regime where
// branch-and-bound does real work (hundreds of expansions at n=7)
// instead of collapsing onto the seed.
func solverMesh(tb testing.TB) (*model.PPDC, model.Workload) {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	mean, half := 5.0, 4.9 // link delays uniform on [mean−half, mean+half]
	mesh, err := topology.RandomMesh(24, 12, 30, func() float64 { return mean - half + 2*half*rng.Float64() }, rng)
	if err != nil {
		tb.Fatal(err)
	}
	d := model.MustNew(mesh, model.Options{SwitchCapacity: 1})
	hosts := mesh.Hosts
	w := make(model.Workload, 12)
	for i := range w {
		w[i] = model.VMPair{
			Src:  hosts[rng.Intn(len(hosts))],
			Dst:  hosts[rng.Intn(len(hosts))],
			Rate: 1 + rng.Float64(),
		}
	}
	return d, w
}

func benchPlacement(b *testing.B, d *model.PPDC, w model.Workload, n int) {
	b.Helper()
	sfc := model.NewSFC(n)
	sol := placement.Optimal{Seed: placement.DP{}}
	b.ReportAllocs()
	start := placement.SearchExpansions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sol.Place(d, w, sfc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(placement.SearchExpansions()-start)/float64(b.N), "exp/op")
}

// BenchmarkSolverPlacementMesh24 measures Algorithm 4 on the hard mesh
// at n=7 (the largest chain the instance completes in well under a
// second).
func BenchmarkSolverPlacementMesh24(b *testing.B) {
	d, w := solverMesh(b)
	// The environment block results/BENCH_solver.json is recorded with.
	host, _ := json.Marshal(benchmeta.Collect())
	b.Logf("host %s", host)
	b.Run("seq", func(b *testing.B) { benchPlacement(b, d, w, 7) })
}

// BenchmarkSolverPlacementFatTree is the ISSUE-named configuration: the
// k=8 fat-tree at n=3, DP-seeded. The fat-tree's uniform link delays
// make the bound nearly tight, so the search proves the seed optimal
// after a single expansion — this bench pins that the kernel keeps the
// easy case cheap.
func BenchmarkSolverPlacementFatTree(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	d := model.MustNew(topology.MustFatTree(8, nil), model.Options{SwitchCapacity: 1})
	hosts := d.Topo.Hosts
	w := make(model.Workload, 16)
	for i := range w {
		w[i] = model.VMPair{
			Src:  hosts[rng.Intn(len(hosts))],
			Dst:  hosts[rng.Intn(len(hosts))],
			Rate: 1 + rng.Float64(),
		}
	}
	b.Run("seq", func(b *testing.B) { benchPlacement(b, d, w, 3) })
}

func benchMigration(b *testing.B, d *model.PPDC, w1, w2 model.Workload, n int) {
	b.Helper()
	sfc := model.NewSFC(n)
	p, _, err := (placement.DP{}).Place(d, w1, sfc)
	if err != nil {
		b.Fatal(err)
	}
	mig := migration.Exhaustive{Seed: migration.MPareto{}}
	b.ReportAllocs()
	start := migration.SearchExpansions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mig.Migrate(d, w2, sfc, p, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(migration.SearchExpansions()-start)/float64(b.N), "exp/op")
}

// BenchmarkSolverMigrationMesh24 measures Algorithm 6 on the hard mesh
// at n=6: place under one rate vector, migrate under a resampled one.
func BenchmarkSolverMigrationMesh24(b *testing.B) {
	d, w1 := solverMesh(b)
	rng := rand.New(rand.NewSource(11))
	rates := make([]float64, len(w1))
	for i := range rates {
		rates[i] = 1 + rng.Float64()
	}
	w2 := w1.WithRates(rates)
	b.Run("seq", func(b *testing.B) { benchMigration(b, d, w1, w2, 6) })
}
