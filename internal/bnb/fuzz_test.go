package bnb

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fuzzSpec draws a small Spec (N <= 5, K <= 7, Cap in {0, 1, 2}) in one
// of three cost modes: 0 random, 1 quantized onto a coarse grid (many
// exact ties, zeros included), 2 symmetric (step[i][j] = step[j][i] and
// the root row equal to the leaf vector, so a tuple and its reverse sum
// the same terms in different orders: ties that round differently).
func fuzzSpec(seed int64, n, k, capacity, mode uint8) Spec {
	rng := rand.New(rand.NewSource(seed))
	nn, kk := 1+int(n%5), 1+int(k%7)
	draw := func() float64 {
		switch mode % 3 {
		case 1:
			return 0.5 * float64(rng.Intn(4))
		case 2:
			return []float64{0.1, 0.2, 0.3, 0.7}[rng.Intn(4)] * float64(1+rng.Intn(3))
		}
		return 100 * rng.Float64()
	}
	step := make([][]float64, kk+1)
	for i := range step {
		step[i] = make([]float64, kk)
		for j := range step[i] {
			step[i][j] = draw()
		}
	}
	leaf := make([]float64, kk)
	for j := range leaf {
		leaf[j] = draw()
	}
	if mode%3 == 2 {
		for i := 0; i < kk; i++ {
			for j := 0; j < i; j++ {
				step[i][j] = step[j][i]
			}
		}
		copy(step[kk], leaf)
	}
	return matrixSpec(nn, int(capacity%3), step, leaf)
}

// FuzzSearchMatchesEnumeration pins the kernel's invariant: whatever
// its own bound prunes, Search returns bit for bit the cost and tuple
// of an unpruned enumeration in the kernel's visit order under the
// kernel's replacement rule; and Relaxed returns bit for bit the least
// cost, summed in the table's association order, over a brute-force
// enumeration of the relaxed tuple set — so the bound at the root is no
// more than any feasible tuple's cost.
// seeded picks the seed: 0 none, 1 a feasible tuple's own cost, 2 the
// unseeded result (which the search must then keep).
func FuzzSearchMatchesEnumeration(f *testing.F) {
	for mode := uint8(0); mode < 3; mode++ {
		for capacity := uint8(0); capacity < 3; capacity++ {
			f.Add(int64(mode)*7+int64(capacity), uint8(3), uint8(5), capacity, mode, uint8(0))
			f.Add(int64(mode)*7+int64(capacity)+100, uint8(4), uint8(6), capacity, mode, capacity)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n, k, capacity, mode, seeded uint8) {
		s := fuzzSpec(seed, n, k, capacity, mode)
		free, _, all := enumerate(s)
		switch seeded % 3 {
		case 1:
			if len(all) > 0 {
				s.SeedCost = pathCost(s, all[int(uint64(seed)%uint64(len(all)))])
			}
		case 2:
			s.SeedCost = free
		}
		want, wantPath, _ := enumerate(s)
		res, err := Search(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Cost) != math.Float64bits(want) || !slices.Equal(res.Path, wantPath) {
			t.Fatalf("N=%d K=%d Cap=%d seed cost %v: search %v %v, enumeration %v %v",
				s.N, s.K, s.Cap, s.SeedCost, res.Cost, res.Path, want, wantPath)
		}
		if !res.Proven {
			t.Fatal("unbudgeted search not proven")
		}
		root := Relaxed(s)
		lo := math.Inf(1)
		for _, p := range relaxedTuples(s) {
			if c := costRightToLeft(s, p); c < lo {
				lo = c
			}
		}
		if math.Float64bits(root) != math.Float64bits(lo) {
			t.Fatalf("Relaxed %v, relaxed enumeration %v", root, lo)
		}
		for _, p := range all {
			if c := costRightToLeft(s, p); root > c {
				t.Fatalf("root bound %v above tuple %v's cost %v", root, p, c)
			}
		}
	})
}
