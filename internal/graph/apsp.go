package graph

import (
	"math"
	"sync/atomic"
	"time"

	"vnfopt/internal/parallel"
)

// APSPObserver receives the wall time of one all-pairs build. The graph
// package stays free of any observability dependency: an interested
// party (e.g. cmd/vnfoptd wiring the internal/obs registry) installs a
// callback with SetAPSPObserver and the kernel reports into it.
type APSPObserver func(vertices, edges, workers int, elapsed time.Duration)

// apspObserver is the installed callback; nil (the default) costs one
// atomic load per AllPairs build.
var apspObserver atomic.Pointer[APSPObserver]

// SetAPSPObserver installs (or, with nil, removes) the process-wide
// APSP build observer. Safe to call concurrently with builds; a build
// in flight reports to whichever callback it loaded at start.
func SetAPSPObserver(fn APSPObserver) {
	if fn == nil {
		apspObserver.Store(nil)
		return
	}
	apspObserver.Store(&fn)
}

// APSP holds an all-pairs shortest path matrix with predecessor links for
// path reconstruction. It is the c(u,v) oracle of the paper's cost model:
// every communication and migration cost is a λ- or μ-weighted APSP lookup.
//
// Rows are independent slices: a full build lays them over one contiguous
// row-major buffer, while an incremental ApplyEdgeDeltas result shares the
// unchanged rows of its parent matrix outright. APSP values are therefore
// immutable once returned — mutating a row would silently corrupt every
// matrix sharing it.
type APSP struct {
	n    int
	dist [][]float64 // dist[u][v]: shortest-path cost u->v
	prev [][]int32   // prev[u][v]: predecessor of v on the shortest u->v path
	// span bounds every finite cost in the matrix when the relaxations of
	// the graph it was built over are strictly increasing (strictRelax) —
	// every row is then canonical, the premise of ApplyEdgeDeltas' row
	// reuse and repair. +Inf when they are not: the next delta re-runs
	// every row.
	span float64
}

// apspStride returns the blocked row-major stride for an n-order
// matrix: row starts rounded up to a multiple of 16 elements, so every
// float64 dist row (8 per 64-byte line) and every int32 prev row (16
// per line) begins on a cache-line boundary. Aligned row starts keep
// the parallel build's chunk boundaries off shared cache lines (no
// false sharing between workers writing adjacent rows) and make
// row-vs-row sweeps — the delta classifier reading dist rows, the cost
// cache streaming Row(u) — stride through whole lines instead of
// straddling them. At k=32 fat-tree and 10k-switch jellyfish orders the
// padding overhead is ≤ 16/n < 0.2%.
func apspStride(n int) int {
	return (n + 15) &^ 15
}

// newAPSP allocates an n-order matrix whose rows tile one contiguous
// stride-padded row-major backing buffer per field (see apspStride).
// Rows keep logical length n — the padding lives between rows, invisible
// to every accessor — with capacity clamped to n so an append cannot
// scribble on a neighbor's padding.
func newAPSP(n int) *APSP {
	a := &APSP{
		n:    n,
		dist: make([][]float64, n),
		prev: make([][]int32, n),
	}
	stride := apspStride(n)
	db := make([]float64, n*stride)
	pb := make([]int32, n*stride)
	for i := 0; i < n; i++ {
		a.dist[i] = db[i*stride : i*stride+n : i*stride+n]
		a.prev[i] = pb[i*stride : i*stride+n : i*stride+n]
	}
	return a
}

// AllPairs runs Dijkstra from every vertex and caches the results.
// Complexity O(|V| * |E| log |V|). The build freezes the graph into a CSR
// snapshot and fans the |V| independent sources across GOMAXPROCS workers
// (see AllPairsWorkers); output is bit-identical to AllPairsSequential at
// any worker count. Measured on the k=16 fat tree (1344 vertices, 3072
// edges; BenchmarkAPSPFatTree): ~74 ms for the sequential [][]Edge
// oracle at ~18.8k heap allocations, ~53 ms for the CSR kernel on one
// core at 26 allocations (just the result matrices plus per-chunk
// scratch).
func AllPairs(g *Graph) *APSP {
	return AllPairsWorkers(g, 0)
}

// AllPairsWorkers is AllPairs with an explicit worker count (≤ 0 =
// GOMAXPROCS, 1 = sequential CSR kernel). Workers own disjoint contiguous
// row ranges of the dist/prev matrices and per-range scratch buffers, so
// the result is bit-identical to the sequential build regardless of
// worker count or scheduling.
func AllPairsWorkers(g *Graph, workers int) *APSP {
	obs := apspObserver.Load()
	var start time.Time
	if obs != nil {
		start = time.Now()
	}
	n := g.Order()
	a := newAPSP(n)
	a.span = canonicalSpan(g.weightBounds())
	csr := g.Freeze()
	err := parallel.MapChunked(n, workers, func(lo, hi int) error {
		var scratch SSSPScratch
		for src := lo; src < hi; src++ {
			csr.DijkstraInto(src, a.dist[src], a.prev[src], &scratch)
		}
		return nil
	})
	if err != nil {
		// DijkstraInto cannot fail on a valid Graph; a surfaced panic is a
		// kernel bug and must not be swallowed.
		panic(err)
	}
	if obs != nil {
		(*obs)(n, g.Size(), workers, time.Since(start))
	}
	return a
}

// AllPairsSequential is the original one-source-at-a-time build over the
// [][]Edge adjacency. It is kept as the differential oracle for the CSR
// and parallel kernels (tests assert byte-identical dist/prev matrices)
// and as the allocation-behavior baseline for the benchmarks.
func AllPairsSequential(g *Graph) *APSP {
	n := g.Order()
	a := newAPSP(n)
	a.span = canonicalSpan(g.weightBounds())
	for src := 0; src < n; src++ {
		dist, prev := g.Dijkstra(src)
		copy(a.dist[src], dist)
		row := a.prev[src]
		for v, p := range prev {
			row[v] = int32(p)
		}
	}
	return a
}

// Order returns the number of vertices covered by the matrix.
func (a *APSP) Order() int { return a.n }

// Cost returns the shortest-path cost c(u,v); Inf if unreachable.
func (a *APSP) Cost(u, v int) float64 { return a.dist[u][v] }

// Row returns the contiguous shortest-path cost row from u:
// Row(u)[v] == Cost(u, v). The slice aliases the cached matrix and must
// not be mutated; it exists so vectorized sweeps (e.g. the aggregated
// workload cost cache) can stream one row without per-element index
// arithmetic.
func (a *APSP) Row(u int) []float64 { return a.dist[u] }

// Pred returns the predecessor of v on the cached shortest u→v path, or
// -1 when v is unreachable from u (and for v == u). Differential tests
// use it to compare predecessor matrices entry-for-entry without
// materializing paths.
func (a *APSP) Pred(u, v int) int { return int(a.prev[u][v]) }

// Reachable reports whether v is reachable from u.
func (a *APSP) Reachable(u, v int) bool { return !math.IsInf(a.dist[u][v], 1) }

// Path reconstructs a shortest u-v vertex sequence (inclusive). It returns
// nil when v is unreachable from u.
func (a *APSP) Path(u, v int) []int {
	if math.IsInf(a.dist[u][v], 1) {
		return nil
	}
	var rev []int
	row := a.prev[u]
	for x := v; x != -1; x = int(row[x]) {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Hops returns the number of edges on the reconstructed shortest u-v path
// (0 for u==v, -1 if unreachable). Note this counts edges of the cached
// min-cost path, not the min-hop path. It walks the prev links directly
// rather than materializing the path, so it never allocates.
func (a *APSP) Hops(u, v int) int {
	if math.IsInf(a.dist[u][v], 1) {
		return -1
	}
	row := a.prev[u]
	h := -1
	for x := int32(v); x != -1; x = row[x] {
		h++
	}
	return h
}

// Diameter returns the greatest finite pairwise cost, i.e. the diameter D
// used in the paper's complexity bound for Algo. 5.
func (a *APSP) Diameter() float64 {
	d := 0.0
	for _, row := range a.dist {
		for _, c := range row {
			if !math.IsInf(c, 1) && c > d {
				d = c
			}
		}
	}
	return d
}

// MetricClosure builds the complete graph G” of paper Algo. 2: vertices
// keep map to the subset `keep` of the original graph's vertices, and every
// pair is joined by an edge of weight c(u,v). The returned index slice maps
// closure vertex i to original vertex keep[i].
//
// The triangle inequality holds by construction, which the stroll DP relies
// on ("using G” overcomes an obstacle otherwise faced by using G").
func (a *APSP) MetricClosure(keep []int) (*Graph, []int) {
	idx := append([]int(nil), keep...)
	h := New(len(idx))
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			c := a.Cost(idx[i], idx[j])
			if !math.IsInf(c, 1) {
				h.AddEdge(i, j, c)
			}
		}
	}
	return h, idx
}

// CostMatrix exposes a dense submatrix of shortest-path costs over the
// given vertices: out[i][j] = c(keep[i], keep[j]). Solvers that index the
// closure heavily use this rather than adjacency lists.
// The rows alias one contiguous row-major buffer (two allocations total,
// like the dist matrix itself), so solvers streaming the closure stay
// cache-local and the build cost no longer scales allocations with the
// submatrix order.
func (a *APSP) CostMatrix(keep []int) [][]float64 {
	k := len(keep)
	out := make([][]float64, k)
	buf := make([]float64, k*k)
	for i, u := range keep {
		row := buf[i*k : (i+1)*k]
		src := a.dist[u]
		for j, v := range keep {
			row[j] = src[v]
		}
		out[i] = row
	}
	return out
}
