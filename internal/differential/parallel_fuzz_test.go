package differential

import (
	"math"
	"math/rand"
	"testing"

	"vnfopt/internal/model"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// parallelScenario builds the mesh or fat-tree instance the parallel
// identity checks run on. Instances stay small because the searches run
// unbudgeted: nothing is guaranteed for an interrupted search. intRates
// rounds every rate up to an integer; on the unit-weight fat-tree that
// makes all cost arithmetic exact, the regime RunParallelIdentity holds
// to bitwise agreement.
func parallelScenario(t testing.TB, seed int64, mesh, capacity2, intRates bool, n int) (*model.PPDC, model.Workload, model.Workload, model.SFC) {
	rng := rand.New(rand.NewSource(seed))
	var topo *topology.Topology
	if mesh {
		var err error
		// Wide-spread weights make the bound prune poorly — the regime
		// where the parallel fan-out actually explores many subtrees.
		topo, err = topology.RandomMesh(10+int(seed&3), 6, 16, topology.UniformDelay(5, 4.9, rng), rng)
		if err != nil {
			t.Skip("mesh generation failed:", err)
		}
	} else {
		topo = topology.MustFatTree(4, nil)
	}
	opts := model.Options{SwitchCapacity: 1}
	if capacity2 {
		opts.SwitchCapacity = 2
	}
	d := model.MustNew(topo, opts)
	l := 4 + int((seed%5+5)%5)
	w1 := workload.MustPairsClustered(d.Topo, l, 3, workload.DefaultIntraRack, rng)
	w2 := w1.WithRates(workload.Rates(len(w1), rng))
	if intRates {
		for i := range w1 {
			w1[i].Rate, w2[i].Rate = math.Ceil(w1[i].Rate), math.Ceil(w2[i].Rate)
		}
	}
	return d, w1, w2, model.NewSFC(n)
}

// TestParallelIdentity pins the parallel-vs-sequential agreement on
// fixed scenarios at several worker counts; `make race` runs it under
// the race detector, which doubles as the data-race proof for the shared
// incumbent.
func TestParallelIdentity(t *testing.T) {
	for _, tc := range []struct {
		name      string
		seed      int64
		mesh      bool
		capacity2 bool
		intRates  bool
		n         int
	}{
		{"fat-tree-n3", 1, false, false, false, 3},
		{"fat-tree-n4-cap2", 2, false, true, false, 4},
		{"fat-tree-n3-exact", 1, false, false, true, 3},
		{"fat-tree-n4-cap2-exact", 2, false, true, true, 4},
		{"mesh-n3", 3, true, false, false, 3},
		{"mesh-n4", 5, true, false, false, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, w1, w2, sfc := parallelScenario(t, tc.seed, tc.mesh, tc.capacity2, tc.intRates, tc.n)
			for _, workers := range []int{2, 4, 8} {
				if err := RunParallelIdentity(d, w1, w2, sfc, 500, workers); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// FuzzParallelKernel fuzzes the parallel-vs-sequential agreement across
// random mesh and fat-tree instances, worker counts, capacities and
// integer or real rates. Any counterexample is a real kernel bug:
// completed searches must agree bitwise where the arithmetic is exact and
// to within a few ulp, on valid and correctly priced tuples, where it is
// not (see RunParallelIdentity). testdata/fuzz holds the real-valued
// inputs on which the two searches return different optima. Run with
// `go test -fuzz=FuzzParallelKernel ./internal/differential`.
func FuzzParallelKernel(f *testing.F) {
	f.Add(int64(1), false, false, false, uint8(3), uint8(2))
	f.Add(int64(1), false, false, true, uint8(3), uint8(2))
	f.Add(int64(7), true, false, false, uint8(4), uint8(8))
	f.Add(int64(-3), true, true, false, uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, mesh, capacity2, intRates bool, nRaw, workersRaw uint8) {
		n := 3 + int(nRaw)%2
		workers := 2 + int(workersRaw)%7
		d, w1, w2, sfc := parallelScenario(t, seed, mesh, capacity2, intRates, n)
		if err := RunParallelIdentity(d, w1, w2, sfc, 500, workers); err != nil {
			t.Fatalf("seed=%d mesh=%v cap2=%v intRates=%v n=%d workers=%d: %v", seed, mesh, capacity2, intRates, n, workers, err)
		}
	})
}
