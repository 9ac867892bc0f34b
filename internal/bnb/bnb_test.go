package bnb

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
)

// tableSpec builds a random search over K candidates with step costs
// from a dense table (row K is the root row) and a leaf-closing vector.
// With quant > 0 costs are quantized onto a coarse grid so equal-cost
// optima abound and the deterministic tie-break is actually exercised.
func tableSpec(rng *rand.Rand, n, k, capacity int, quant float64) Spec {
	draw := func() float64 {
		c := 1 + 99*rng.Float64()
		if quant > 0 {
			c = math.Trunc(c/quant) * quant
		}
		return c
	}
	step := make([][]float64, k+1)
	for i := range step {
		step[i] = make([]float64, k)
		for j := range step[i] {
			step[i][j] = draw()
		}
	}
	leaf := make([]float64, k)
	for j := range leaf {
		leaf[j] = draw()
	}
	return matrixSpec(n, capacity, step, leaf)
}

// matrixSpec is the Spec of a dense step table (row len(leaf) is the
// root row) and a leaf vector.
func matrixSpec(n, capacity int, step [][]float64, leaf []float64) Spec {
	k := len(leaf)
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
		LeafCost: func(last int) float64 { return leaf[last] },
		SeedCost: math.Inf(1),
	}
}

// pairSpec is a tour through all k candidates (N = K, Cap = 1) whose
// only cheap steps pair i with i^1. The consecutive-distinct relaxation
// may bounce between the two members of a pair, so it counts every
// remaining step as cheap while a feasible tour pays an expensive step
// between pairs: the bound is loose and the tree is large, which is
// what the budget, cancellation and allocation tests need.
func pairSpec(rng *rand.Rand, k int) Spec {
	step := make([][]float64, k+1)
	for i := range step {
		step[i] = make([]float64, k)
		for j := range step[i] {
			if i < k && j == i^1 {
				step[i][j] = 1 + rng.Float64()
			} else {
				step[i][j] = 10 + 10*rng.Float64()
			}
		}
	}
	leaf := make([]float64, k)
	for j := range leaf {
		leaf[j] = 1 + rng.Float64()
	}
	return matrixSpec(k, 1, step, leaf)
}

// margin is the kernel's rounding margin m for an incumbent cost best.
func margin(s Spec, best float64) float64 {
	if math.IsInf(best, 0) {
		return 0
	}
	return float64(2*(s.N+1)) * 0x1p-53 * math.Abs(best)
}

// enumerate visits every feasible tuple in the kernel's order — children
// cheapest step first, equal steps in id order — summing left to right
// and replacing the incumbent by the kernel's rule (a leaf must come in
// below best − 2m), with no pruning at all. It returns the cost, the
// tuple (nil when the seed was never beaten) and every feasible tuple.
func enumerate(s Spec) (float64, []int, [][]int) {
	used := make([]int, s.K)
	path := make([]int, s.N)
	best := s.SeedCost
	var bestPath []int
	var all [][]int
	var rec func(last, depth int, cur float64)
	rec = func(last, depth int, cur float64) {
		if depth == s.N {
			all = append(all, append([]int(nil), path...))
			if total := cur + s.LeafCost(last); total < best-2*margin(s, best) {
				best = total
				bestPath = append(bestPath[:0], path...)
			}
			return
		}
		var kids []int
		for v := 0; v < s.K; v++ {
			if s.Cap <= 0 || used[v] < s.Cap {
				kids = append(kids, v)
			}
		}
		sort.SliceStable(kids, func(a, b int) bool {
			return s.StepCost(last, kids[a], depth) < s.StepCost(last, kids[b], depth)
		})
		for _, v := range kids {
			used[v]++
			path[depth] = v
			rec(v, depth+1, cur+s.StepCost(last, v, depth))
			used[v]--
		}
	}
	rec(-1, 0, 0)
	return best, bestPath, all
}

// costRightToLeft sums a tuple in the bound table's association order:
// leaf first, then each step onto the sum of the steps after it.
func costRightToLeft(s Spec, path []int) float64 {
	c := s.LeafCost(path[len(path)-1])
	for d := len(path) - 1; d >= 0; d-- {
		last := -1
		if d > 0 {
			last = path[d-1]
		}
		c = s.StepCost(last, path[d], d) + c
	}
	return c
}

// relaxedTuples lists the tuples the kernel's relaxation ranges over:
// all K^N of them, less those with one candidate in two consecutive
// slots when Cap == 1.
func relaxedTuples(s Spec) [][]int {
	var out [][]int
	path := make([]int, s.N)
	var rec func(depth int)
	rec = func(depth int) {
		if depth == s.N {
			out = append(out, append([]int(nil), path...))
			return
		}
		for v := 0; v < s.K; v++ {
			if s.Cap == 1 && depth > 0 && path[depth-1] == v {
				continue
			}
			path[depth] = v
			rec(depth + 1)
		}
	}
	rec(0)
	return out
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
		want, wantPath, _ := enumerate(s)
		res, err := Search(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != want || !slices.Equal(res.Path, wantPath) {
			t.Fatalf("trial %d: %v %v, enumeration %v %v", trial, res.Cost, res.Path, want, wantPath)
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
	s := pairSpec(rand.New(rand.NewSource(4)), 8)
	full, err := Search(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if full.Expansions <= 100 {
		t.Fatalf("full search took %d expansions, want > 100 for a budget of 100 to bite", full.Expansions)
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
	s := pairSpec(rand.New(rand.NewSource(5)), 9)
	if full, _ := Search(context.Background(), s); full.Expansions <= ctxCheckMask+1 {
		t.Fatalf("full search took %d expansions, want > %d to reach the first poll", full.Expansions, ctxCheckMask+1)
	}
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
// call is a small constant (scratch setup and the bound table),
// independent of the thousands of node expansions performed — i.e. the inner loop is
// allocation-free.
func TestZeroAllocExpansions(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	small := tableSpec(rng, 2, 8, 1, 0)
	big := pairSpec(rng, 10)

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
