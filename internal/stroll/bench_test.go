package stroll

import (
	"math/rand"
	"strconv"
	"testing"
)

func benchInstance(nv, n int) Instance {
	rng := rand.New(rand.NewSource(7))
	return randomMetricInstance(rng, nv, n)
}

func BenchmarkDPByN(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			in := benchInstance(82, n) // k=8 closure size
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DP(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDPTableSharedQueries(b *testing.B) {
	in := benchInstance(82, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := NewDPTable(Matrix(in.Cost), in.T)
		// One table, every source — Algorithm 3's access pattern.
		for s := 0; s < len(in.Cost); s++ {
			if s == in.T {
				continue
			}
			if _, err := tb.Stroll(s, 4, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkExhaustive(b *testing.B) {
	in := benchInstance(20, 4) // k=4-scale exact search
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exhaustive(in, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrimalDual(b *testing.B) {
	in := benchInstance(22, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PrimalDual(in); err != nil {
			b.Fatal(err)
		}
	}
}
