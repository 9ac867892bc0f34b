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

// apspBlock is the number of cells in one block of a row, the unit of
// sharing between a matrix and the ones ApplyEdgeDeltas derives from it:
// 512 bytes of dist, 256 of prev. Cell v of a row sits in block
// v>>apspShift at index v&apspMask.
const (
	apspShift = 6
	apspBlock = 1 << apspShift
	apspMask  = apspBlock - 1
)

type (
	distBlock [apspBlock]float64
	prevBlock [apspBlock]int32
)

// apspRow is one source's row: a table of pointers to blocks of cells per
// field. The last block is padded to full length; no vertex id reaches the
// padding, and nothing else is ever used as an index.
type apspRow struct {
	dist []*distBlock // d(v): shortest-path cost source->v
	prev []*prevBlock // p(v): predecessor of v on that path
}

func (r apspRow) d(v int) float64 { return r.dist[v>>apspShift][v&apspMask] }
func (r apspRow) p(v int) int32   { return r.prev[v>>apspShift][v&apspMask] }

// APSP holds an all-pairs shortest path matrix with predecessor links for
// path reconstruction. It is the c(u,v) oracle of the paper's cost model:
// every communication and migration cost is a λ- or μ-weighted APSP lookup.
//
// A full build lays every row's blocks over one contiguous buffer, while
// an incremental ApplyEdgeDeltas result shares with its parent matrix
// every row table the delta leaves alone and, in the rows it writes, every
// block in which no cell changes value. APSP values are therefore
// immutable once returned — mutating a block would silently corrupt every
// matrix sharing it.
type APSP struct {
	n    int
	rows []apspRow
	// span bounds every finite cost in the matrix when the relaxations of
	// the graph it was built over are strictly increasing (strictRelax) —
	// every row is then canonical, the premise of ApplyEdgeDeltas' row
	// repair. +Inf when they are not: the next delta re-runs
	// every row.
	span float64
}

// flatRows holds k rows of an n-order matrix whose cells are contiguous
// per field, each row padded to whole blocks: what a full Dijkstra run
// writes, since DijkstraInto takes flat slices. Every block starts on a
// cache line (the allocator aligns these sizes to 64 bytes and a block is
// a multiple of that), so the parallel build's workers never share one.
type flatRows struct {
	n, stride int // stride: cells per padded row
	dist      []float64
	prev      []int32
	distTab   []*distBlock
	prevTab   []*prevBlock
}

func newFlatRows(n, k int) flatRows {
	blocks := (n + apspMask) >> apspShift
	stride := blocks * apspBlock
	return flatRows{
		n: n, stride: stride,
		dist:    make([]float64, k*stride),
		prev:    make([]int32, k*stride),
		distTab: make([]*distBlock, k*blocks),
		prevTab: make([]*prevBlock, k*blocks),
	}
}

// cells returns row i's flat cells, for DijkstraInto to fill.
func (f flatRows) cells(i int) ([]float64, []int32) {
	o := i * f.stride
	return f.dist[o : o+f.n : o+f.n], f.prev[o : o+f.n : o+f.n]
}

// row returns row i with its tables pointed at its blocks.
func (f flatRows) row(i int) apspRow {
	blocks := f.stride >> apspShift
	r := apspRow{
		dist: f.distTab[i*blocks : (i+1)*blocks : (i+1)*blocks],
		prev: f.prevTab[i*blocks : (i+1)*blocks : (i+1)*blocks],
	}
	for b := range r.dist {
		o := i*f.stride + b*apspBlock
		r.dist[b] = (*distBlock)(f.dist[o : o+apspBlock])
		r.prev[b] = (*prevBlock)(f.prev[o : o+apspBlock])
	}
	return r
}

// newAPSP allocates an n-order matrix over one flatRows, which it returns
// for the build to fill.
func newAPSP(n int) (*APSP, flatRows) {
	f := newFlatRows(n, n)
	a := &APSP{n: n, rows: make([]apspRow, n)}
	for i := range a.rows {
		a.rows[i] = f.row(i)
	}
	return a, f
}

// AllPairs runs Dijkstra from every vertex and caches the results.
// Complexity O(|V| * |E| log |V|). The build freezes the graph into a CSR
// snapshot and fans the |V| independent sources across GOMAXPROCS workers
// (see allPairsWorkers); output is bit-identical to AllPairsSequential at
// any worker count. Measured on the k=16 fat tree (1344 vertices, 3072
// edges; BenchmarkAPSPFatTree): ~74 ms for the sequential [][]Edge
// oracle at ~18.8k heap allocations, ~53 ms for the CSR kernel on one
// core at 26 allocations (just the result matrices plus per-chunk
// scratch).
func AllPairs(g *Graph) *APSP {
	return allPairsWorkers(g, 0)
}

// allPairsWorkers is AllPairs with an explicit worker count (≤ 0 =
// GOMAXPROCS, 1 = sequential CSR kernel). Workers own disjoint contiguous
// row ranges of the dist/prev matrices and per-range scratch buffers, so
// the result is bit-identical to the sequential build regardless of
// worker count or scheduling.
func allPairsWorkers(g *Graph, workers int) *APSP {
	obs := apspObserver.Load()
	var start time.Time
	if obs != nil {
		start = time.Now()
	}
	n := g.Order()
	a, flat := newAPSP(n)
	a.span = canonicalSpan(g.weightBounds())
	csr := g.Freeze()
	err := parallel.MapChunked(n, workers, func(lo, hi int) error {
		var scratch SSSPScratch
		for src := lo; src < hi; src++ {
			dist, prev := flat.cells(src)
			csr.DijkstraInto(src, dist, prev, &scratch)
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
	a, flat := newAPSP(n)
	a.span = canonicalSpan(g.weightBounds())
	for src := 0; src < n; src++ {
		dist, prev := g.Dijkstra(src)
		distRow, prevRow := flat.cells(src)
		copy(distRow, dist)
		for v, p := range prev {
			prevRow[v] = int32(p)
		}
	}
	return a
}

// Order returns the number of vertices covered by the matrix.
func (a *APSP) Order() int { return a.n }

// Cost returns the shortest-path cost c(u,v); Inf if unreachable.
func (a *APSP) Cost(u, v int) float64 { return a.rows[u].d(v) }

// Stretches is a vertex list cut into stretches that count up by one
// inside one block, so a row is read a stretch at a time rather than a
// cell at a time. A topology numbers its switches in a run, so the
// switches cut into few. CostMatrix and AddScaledCells read rows through
// it.
type Stretches []stretch

// stretch is keep[at : at+n], which is cells off..off+n-1 of block block.
type stretch struct{ at, block, off, n int }

// AppendStretches cuts keep into stretches, appends them to dst and
// returns the result.
func AppendStretches(dst Stretches, keep []int) Stretches {
	for j := 0; j < len(keep); {
		v, n := keep[j], 1
		for j+n < len(keep) && keep[j+n] == v+n && (v+n)&apspMask != 0 {
			n++
		}
		dst = append(dst, stretch{j, v >> apspShift, v & apspMask, n})
		j += n
	}
	return dst
}

// AddScaledCells adds scale·c(u,v) to acc[v] for every vertex v of keep;
// acc is vertex-indexed and its other cells are left alone. The
// aggregated workload cost cache sweeps its rows this way, paying one
// block lookup per stretch and touching no cell it never reads.
func (a *APSP) AddScaledCells(acc []float64, u int, scale float64, keep Stretches) {
	src := a.rows[u].dist
	for _, r := range keep {
		cells := src[r.block][r.off : r.off+r.n]
		seg := acc[r.block<<apspShift+r.off:][:r.n]
		for i, c := range cells {
			seg[i] += scale * c
		}
	}
}

// Pred returns the predecessor of v on the cached shortest u→v path, or
// -1 when v is unreachable from u (and for v == u). Differential tests
// use it to compare predecessor matrices entry-for-entry without
// materializing paths.
func (a *APSP) Pred(u, v int) int { return int(a.rows[u].p(v)) }

// Path reconstructs a shortest u-v vertex sequence (inclusive). It returns
// nil when v is unreachable from u.
func (a *APSP) Path(u, v int) []int {
	row := a.rows[u]
	if math.IsInf(row.d(v), 1) {
		return nil
	}
	var rev []int
	for x := v; x != -1; x = int(row.p(x)) {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Diameter returns the greatest finite pairwise cost, i.e. the diameter D
// used in the paper's complexity bound for Algo. 5.
func (a *APSP) Diameter() float64 {
	d := 0.0
	for _, row := range a.rows {
		for v := 0; v < a.n; v++ {
			if c := row.d(v); !math.IsInf(c, 1) && c > d {
				d = c
			}
		}
	}
	return d
}

// CostMatrix exposes a dense submatrix of shortest-path costs over the
// given vertices: out[i][j] = c(keep[i], keep[j]) — the complete graph G”
// of paper Algo. 2 over keep, whose triangle inequality holds by
// construction, which the stroll DP relies on ("using G” overcomes an
// obstacle otherwise faced by using G").
// The rows alias one contiguous row-major buffer (two allocations total),
// so solvers streaming the closure stay cache-local and the build cost
// does not scale allocations with the submatrix order. keep is cut once
// into Stretches, and every row copies stretch by stretch.
func (a *APSP) CostMatrix(keep []int) [][]float64 {
	k := len(keep)
	var few [16]stretch // on the stack: the usual keep allocates nothing here
	runs := AppendStretches(few[:0], keep)
	out := make([][]float64, k)
	buf := make([]float64, k*k)
	for i, u := range keep {
		row := buf[i*k : (i+1)*k]
		src := a.rows[u].dist
		for _, r := range runs {
			if r.n == 1 {
				row[r.at] = src[r.block][r.off]
			} else {
				copy(row[r.at:r.at+r.n], src[r.block][r.off:r.off+r.n])
			}
		}
		out[i] = row
	}
	return out
}
