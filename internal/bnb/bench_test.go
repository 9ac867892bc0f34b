package bnb

import (
	"context"
	"math/rand"
	"testing"
)

// benchSpec is a weak-pruning search big enough (~9k expansions) that
// per-expansion costs dominate: allocs/op measures the whole Search
// call, so a handful of allocations at ~9k expansions demonstrates the
// allocation-free inner loop.
func benchSpec() Spec {
	s := tableSpec(rand.New(rand.NewSource(42)), 5, 8, 1, 0)
	s.TailBound = func(int, int) float64 { return -1e12 }
	return s
}

func BenchmarkKernelSequential(b *testing.B) {
	s := benchSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Search(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
	res, _ := Search(context.Background(), s)
	b.ReportMetric(float64(res.Expansions), "expansions/op")
}
