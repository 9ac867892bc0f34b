package graph

import (
	"math/rand"
	"strconv"
	"testing"
)

func benchGraph(n, extra int) *Graph {
	rng := rand.New(rand.NewSource(1))
	return randomConnectedGraph(rng, n, extra)
}

func BenchmarkDijkstra(b *testing.B) {
	g := benchGraph(1000, 3000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(i % g.Order())
	}
}

// BenchmarkDijkstraCSR is the allocation-reduction half of the APSP
// acceptance gate: the frozen CSR kernel with a warm scratch runs the
// same sources as BenchmarkDijkstra with zero per-source allocations.
func BenchmarkDijkstraCSR(b *testing.B) {
	g := benchGraph(1000, 3000)
	csr := g.freeze()
	dist := make([]float64, csr.Order())
	prev := make([]int32, csr.Order())
	var scratch SSSPScratch
	csr.DijkstraInto(0, dist, prev, &scratch) // warm the heap buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr.DijkstraInto(i%csr.Order(), dist, prev, &scratch)
	}
}

// fatTreeScaleGraph approximates the k=16 fat-tree APSP workload (1344
// vertices, 3072 edges) without importing the topology package (which
// depends on graph).
func fatTreeScaleGraph() *Graph {
	rng := rand.New(rand.NewSource(16))
	return randomConnectedGraph(rng, 1344, 1729)
}

// BenchmarkAllPairsSequential is the [][]Edge oracle build at k=16
// fat-tree scale — the "before" of the CSR + parallel kernel.
func BenchmarkAllPairsSequential(b *testing.B) {
	g := fatTreeScaleGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AllPairsSequential(g)
	}
}

// BenchmarkAllPairsParallel sweeps worker counts over the CSR kernel,
// building every row as one batch (allPairsWorkers), so it times a full
// build although AllPairs builds a row on its first read. workers=1
// isolates the CSR + scratch-reuse win; workers=0 (GOMAXPROCS) adds the
// fan-out.
func BenchmarkAllPairsParallel(b *testing.B) {
	g := fatTreeScaleGraph()
	for _, workers := range []int{1, 2, 4, 0} {
		name := "workers=" + strconv.Itoa(workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				allPairsWorkers(g, workers)
			}
		})
	}
}

// BenchmarkAllPairs times a full build at GOMAXPROCS: every row read,
// as one batch.
func BenchmarkAllPairs(b *testing.B) {
	g := benchGraph(300, 900)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		allPairsWorkers(g, 0)
	}
}

func BenchmarkCostMatrix(b *testing.B) {
	g := benchGraph(300, 900)
	a := allPairsWorkers(g, 0)
	keep := make([]int, 150)
	for i := range keep {
		keep[i] = i * 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.CostMatrix(keep)
	}
}
