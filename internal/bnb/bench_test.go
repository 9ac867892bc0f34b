package bnb

import (
	"context"
	"math/rand"
	"testing"
)

// benchSpec is a loosely bounded tour (pairSpec) big enough (~10k
// expansions) that per-expansion costs dominate: allocs/op measures the
// whole Search call, so a handful of allocations at ~10k expansions
// demonstrates the allocation-free inner loop.
func benchSpec() Spec {
	return pairSpec(rand.New(rand.NewSource(42)), 10)
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
