package model

import (
	"math/rand"
	"testing"

	"vnfopt/internal/topology"
)

// benchCache builds the k=8 (128-host) paper-scale fixture the cache
// benchmarks run on: l flows over a fat tree, aggregated once.
func benchCache(b *testing.B, l int) (*WorkloadCache, Workload) {
	b.Helper()
	d := MustNew(topology.MustFatTree(8, nil), Options{})
	rng := rand.New(rand.NewSource(7))
	hosts := d.Hosts()
	w := make(Workload, l)
	for i := range w {
		w[i] = VMPair{
			Src:  hosts[rng.Intn(len(hosts))],
			Dst:  hosts[rng.Intn(len(hosts))],
			Rate: rng.Float64() * 100,
		}
	}
	return d.NewWorkloadCache(w), w
}

// BenchmarkWorkloadCacheRebuild measures the full SetWorkload rebuild —
// the engine's O(l + H·|V|) cost of an epoch that changed a rate.
func BenchmarkWorkloadCacheRebuild(b *testing.B) {
	c, w := benchCache(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w[i%len(w)].Rate = float64(i%97) + 1
		c.SetWorkload(w)
	}
}
