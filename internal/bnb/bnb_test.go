package bnb

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// tableSpec builds a random search over K candidates with step costs
// from a dense table (row K is the root row), a leaf-closing vector,
// and an admissible tail bound assembled from the table minima. With
// quant > 0 costs are quantized onto a coarse grid so equal-cost optima
// abound and the deterministic tie-break is actually exercised.
func tableSpec(rng *rand.Rand, n, k, capacity int, quant float64) Spec {
	step := make([][]float64, k+1)
	for i := range step {
		step[i] = make([]float64, k)
		for j := range step[i] {
			c := 1 + 99*rng.Float64()
			if quant > 0 {
				c = math.Trunc(c/quant) * quant
			}
			step[i][j] = c
		}
	}
	leaf := make([]float64, k)
	minStep, minLeaf := math.Inf(1), math.Inf(1)
	for j := range leaf {
		c := 1 + 99*rng.Float64()
		if quant > 0 {
			c = math.Trunc(c/quant) * quant
		}
		leaf[j] = c
		if c < minLeaf {
			minLeaf = c
		}
	}
	for i := range step {
		for _, c := range step[i] {
			if c < minStep {
				minStep = c
			}
		}
	}
	return Spec{
		N:   n,
		K:   k,
		Cap: capacity,
		StepCost: func(last, v, depth int) float64 {
			if depth == 0 {
				return step[k][v]
			}
			return step[last][v]
		},
		TailBound: func(v, depth int) float64 {
			return float64(n-1-depth)*minStep + minLeaf
		},
		LeafCost: func(last int) float64 { return leaf[last] },
		SeedCost: math.Inf(1),
	}
}

// bruteForce enumerates every feasible tuple and returns the minimum
// cost, accumulating in the kernel's association order so equal costs
// are equal bitwise.
func bruteForce(s Spec) float64 {
	used := make([]int, s.K)
	best := s.SeedCost
	var rec func(last, depth int, cur float64)
	rec = func(last, depth int, cur float64) {
		if depth == s.N {
			if total := cur + s.LeafCost(last); total < best {
				best = total
			}
			return
		}
		for v := 0; v < s.K; v++ {
			if s.Cap > 0 && used[v] >= s.Cap {
				continue
			}
			used[v]++
			rec(v, depth+1, cur+s.StepCost(last, v, depth))
			used[v]--
		}
	}
	rec(-1, 0, 0)
	return best
}

func pathCost(s Spec, path []int) float64 {
	cur := 0.0
	last := -1
	for depth, v := range path {
		cur += s.StepCost(last, v, depth)
		last = v
	}
	return cur + s.LeafCost(last)
}

func TestSequentialMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(4)
		k := n + rng.Intn(6)
		capacity := 1
		if trial%3 == 1 {
			capacity = 2
		} else if trial%3 == 2 {
			capacity = 0 // unlimited
		}
		s := tableSpec(rng, n, k, capacity, 0)
		want := bruteForce(s)
		res, err := Search(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != want {
			t.Fatalf("trial %d: cost %v, brute force %v", trial, res.Cost, want)
		}
		if !res.Proven {
			t.Fatalf("trial %d: unbudgeted search not proven", trial)
		}
		if res.Path == nil {
			t.Fatalf("trial %d: no path", trial)
		}
		if got := pathCost(s, res.Path); got != res.Cost {
			t.Fatalf("trial %d: path cost %v != reported %v", trial, got, res.Cost)
		}
	}
}

func TestSeedNeverBeatenKeepsSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := tableSpec(rng, 3, 5, 1, 0)
	s.SeedCost = 0 // cheaper than any tuple (all costs >= 1)
	res, err := Search(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 || res.Path != nil || !res.Proven {
		t.Fatalf("%+v, want seed kept", res)
	}
}

func TestNodeBudgetStopsSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := tableSpec(rng, 5, 9, 1, 0)
	s.TailBound = func(int, int) float64 { return -1e12 } // defeat pruning: full tree
	full, err := Search(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	s.NodeBudget = 100
	res, err := Search(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Proven {
		t.Fatalf("budget 100 of %d expansions claimed proven", full.Expansions)
	}
	if res.Expansions >= full.Expansions {
		t.Fatalf("budgeted search expanded %d >= full %d", res.Expansions, full.Expansions)
	}
}

// countdownCtx reports Canceled starting from the (after+1)-th Err()
// poll, making mid-search cancellation deterministic.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestCancellationMidSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := tableSpec(rng, 6, 10, 1, 0)
	s.TailBound = func(int, int) float64 { return -1e12 } // full tree, polls guaranteed
	cc := &countdownCtx{Context: context.Background()}
	res, err := Search(cc, s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want Canceled", err)
	}
	if res.Proven {
		t.Fatal("cancelled search claimed proven")
	}
}

func TestCapacityRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, capacity := range []int{1, 2} {
		s := tableSpec(rng, 4, 4, capacity, 0)
		res, err := Search(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[int]int{}
		for _, v := range res.Path {
			counts[v]++
			if counts[v] > capacity {
				t.Fatalf("cap %d violated by path %v", capacity, res.Path)
			}
		}
	}
}

// TestInfeasibleReturnsSeed: N > K x Cap leaves no feasible tuple; the
// kernel must report the seed as proven rather than hang or invent a
// path. (Callers normally reject this upfront; the kernel stays safe.)
func TestInfeasibleReturnsSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := tableSpec(rng, 4, 3, 1, 0)
	res, err := Search(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != nil || !res.Proven || !math.IsInf(res.Cost, 1) {
		t.Fatalf("%+v, want proven seed", res)
	}
}

// TestZeroAllocExpansions: the number of heap allocations per Search
// call is a small constant (scratch setup), independent of the tens of
// thousands of node expansions performed — i.e. the inner loop is
// allocation-free.
func TestZeroAllocExpansions(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	small := tableSpec(rng, 2, 8, 1, 0)
	big := tableSpec(rng, 5, 8, 1, 0)
	big.TailBound = func(int, int) float64 { return -1e12 } // full ~8.8k-node tree

	measure := func(s Spec) (allocs float64, expansions int64) {
		var res Result
		allocs = testing.AllocsPerRun(5, func() {
			var err error
			res, err = Search(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
		})
		return allocs, res.Expansions
	}
	smallAllocs, smallExp := measure(small)
	bigAllocs, bigExp := measure(big)
	if bigExp < 1000*smallExp/100 || bigExp < 5000 {
		t.Fatalf("big search too small to be meaningful: %d vs %d expansions", bigExp, smallExp)
	}
	// Setup allocates O(N) candidate arrays; the expansion loop must not
	// allocate at all, so allocs may grow only by the few extra per-depth
	// arrays — not with the ~1000x expansion count.
	if bigAllocs > smallAllocs+16 {
		t.Fatalf("allocs scale with expansions: %v allocs at %d expansions vs %v at %d",
			bigAllocs, bigExp, smallAllocs, smallExp)
	}
}
